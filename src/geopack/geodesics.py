"""Distances, geodesic predicates, and exhaustive maximal-geodesic enumeration.

The pair pass (``_maximal_pairs``) owns the distance facts: the maximal
pairs with each source's distance row.  One search down a source's BFS
layers (``_paths_from``) reads it two ways: the walk (``_list_geodesics``,
run only by the solvers and ``enumerate``) takes every path, and the greedy
packing (``_greedy_packing``) the first.  A set S meets every maximal
geodesic exactly when the greedy packing that avoids S is empty.  The length
classes (``_length_classes``) read the pairs alone; the predicates run
single BFS.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

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


# The ball pass replaces one BFS per source when the first source's BFS
# reaches every vertex and there are at least this many sources per layer of
# it (k >= _BALL_RATIO * depth).  Both cost O(|E|) steps a round: a round is
# one source's BFS, or one layer of every ball, in n-bit integer operations.
# Ball time over per-source time, measured on one core (CPython 3.11): 1.8-4.3
# on 42-vertex random trees (k/depth <= 2.4) and on cycle:30 (2); 0.6-1.3 on
# connected random graphs of 18-100 vertices at 3.4-7.5, where on the sparse
# ones reading each partnered source's row from its layers costs about what
# its BFS did; 0.5-0.6 on the diagonal grids of 25-64 vertices (6.3-9.1), and
# 0.16-0.4 on denser grids and rook graphs (12-450).
_BALL_RATIO = 6

_Pairs = list[tuple[int, list[int], list[int]]]


def _maximal_pairs(adj: Sequence[Sequence[int]]) -> _Pairs:
    """The pair pass: ``(u, partners, dist)`` for every source u with a
    maximal partner v >= u, ascending, with the partners ascending and u's
    distance row (``len(adj)`` at unreached vertices).  The only source of
    distance facts besides single BFS queries.

    A vertex v is a sink of u when no neighbour of v is one layer further
    from u.  A geodesic from u to v extends past v exactly when v is not a
    sink of u, so (u, v) is a maximal pair when v is a sink of u and u a
    sink of v; an isolated vertex is its own partner.  Every geodesic
    between a maximal pair is maximal.  Only the k vertices that are not
    cut vertices (in a tree, the leaves) are sources.  A cut vertex c is
    never a sink: some part of the graph cut off by c misses the source, and
    c's neighbour there is one layer further out, since every path to it
    passes c.  So c ends no maximal geodesic.

    Two strategies give the same pairs and rows, after one lowpoint DFS and
    one BFS from the highest source: one BFS per source, O(k*|E|)
    (``_bfs_pairs``), or every ball grown at once as a bitmask, O(D*|E|)
    operations on n-bit integers for the diameter D (``_ball_pairs``).  That
    first BFS picks the balls when it reaches every vertex and k is at least
    ``_BALL_RATIO`` times its depth, and is otherwise the first of the
    per-source BFS.
    """
    n = len(adj)
    cut = _cut_vertices(adj)
    sources = [u for u in reversed(range(n)) if not cut >> u & 1]
    if not sources:
        return []
    first = _bfs(adj, sources[0])
    dist, order, _ = first
    if len(order) == n and len(sources) >= _BALL_RATIO * dist[order[-1]]:
        return _ball_pairs(adj, sources)
    return _bfs_pairs(adj, sources, first)


def _partners(u: int, sinks: Sequence[int]) -> list[int]:
    # The v >= u with v a sink of u and u a sink of v, ascending; the sinks
    # of each such v are known.
    partners = []
    rest = sinks[u] >> u
    while rest:
        low = rest & -rest
        v = u + low.bit_length() - 1
        if sinks[v] >> u & 1:
            partners.append(v)
        rest ^= low
    return partners


def _bfs_pairs(
    adj: Sequence[Sequence[int]], sources: list[int], first: tuple[list[int], list[int], int]
) -> _Pairs:
    """The pair pass by one BFS per source: ``sources`` descending, and
    ``first`` the BFS of ``sources[0]``.  Descending, the sinks of every
    v > u are known when u's partners are read off; only sources with
    partners keep their BFS."""
    sinks = [0] * len(adj)
    pairs = []
    for u in sources:
        dist, _, sinks[u] = first if u == sources[0] else _bfs(adj, u)
        partners = _partners(u, sinks)
        if partners:
            pairs.append((u, partners, dist))
    pairs.reverse()
    return pairs


def _ball_pairs(adj: Sequence[Sequence[int]], sources: list[int]) -> _Pairs:
    """The pair pass by balls (Then et al., *The More the Merrier*, PVLDB
    2014): ``ball[v]``, the mask of the vertices within k of v, grows one
    layer a round as the OR of v's and its neighbours' balls.

    At round k, u is in v's layer (``ball_k[v] & ~ball_{k-1}[v]``) and v is
    a sink of u exactly when every neighbour w of v lies within k of u, that
    is u in ``ball_k[w]``.  So the AND of the neighbours' balls, over the
    layer, gives the u that v is a sink of; by symmetry that is the mask of
    u's sinks read from the other side.  A ball that stops growing, or
    holds every vertex, holds its component, and so do its neighbours' from
    then on, so it leaves the rounds.  The distance rows are read from the
    stored layers, only for the ``sources`` (descending) with a partner.
    """
    n = len(adj)
    full = (1 << n) - 1
    ball = [1 << v for v in range(n)]
    layers = [[b] for b in ball]
    # sunk[v]: the u that v is a sink of, the sinks read from the other side.
    # An isolated vertex is its own sink; a cut vertex is no one's and keeps 0.
    sunk = [0 if adj[v] else 1 << v for v in range(n)]
    live = [v for v in range(n) if adj[v]]
    while live:
        grown = ball[:]
        for v in live:
            b = ball[v]
            for w in adj[v]:
                b |= ball[w]
            grown[v] = b
        still = []
        for v in live:
            b = grown[v]
            layer = b & ~ball[v]
            if not layer:
                continue
            layers[v].append(layer)
            if b != full:
                still.append(v)
            for w in adj[v]:
                layer &= grown[w]
                if not layer:
                    break
            sunk[v] |= layer
        ball = grown
        live = still
    pairs = []
    for u in reversed(sources):
        partners = _partners(u, sunk)
        if partners:
            dist = [n] * n
            for d, layer in enumerate(layers[u]):
                while layer:
                    low = layer & -layer
                    dist[low.bit_length() - 1] = d
                    layer ^= low
            pairs.append((u, partners, dist))
    return pairs


def _paths_from(
    adj: Sequence[Sequence[int]], dist: Sequence[int], u: int, ends: set[int], used: bytearray | None
) -> Iterator[tuple[int, ...]]:
    """The one search down the BFS layers: every path from u down u's layers
    (``dist``) to a vertex of ``ends``, through no vertex marked in ``used``.

    Depth first, lowest neighbour first, so the paths come out in
    lexicographic order.  A vertex whose subtree yielded nothing is dead and
    never entered again, nor is one as deep as the deepest end, so the
    search costs O(|E|) plus a scan of each live vertex's neighbours per
    path through it.  An end is a sink of u, so no path runs past one and
    none is a prefix of another; an isolated u in ``ends`` yields ``(u,)``.
    Callers never pass empty ``ends``, nor a u marked in ``used``.
    """
    if u in ends:
        yield (u,)
        return
    dead = bytearray(len(adj)) if used is None else bytearray(used)
    deepest = max(dist[v] for v in ends)
    path = [u]
    stack = [(iter(adj[u]), 0)]  # each vertex's neighbours, and the count on entry
    count = 0
    while stack:
        nbrs, entered = stack[-1]
        depth = len(path)
        for y in nbrs:
            if dist[y] == depth and not dead[y]:
                if y in ends:
                    count += 1
                    yield (*path, y)
                elif depth < deepest:
                    path.append(y)
                    stack.append((iter(adj[y]), count))
                    break
        else:
            stack.pop()
            x = path.pop()
            if count == entered:
                dead[x] = 1


def _list_geodesics(
    adj: Sequence[Sequence[int]], sources: _Pairs, cap: int
) -> GeodesicCatalog:
    """The walk: the maximal geodesics between the pairs of ``_maximal_pairs``,
    sorted, up to ``cap`` entries: per source u, the paths ``_paths_from``
    finds down u's layers to its partners, in source order.
    """
    paths: list[tuple[int, ...]] = []
    for u, partners, dist in sources:
        for path in _paths_from(adj, dist, u, set(partners), None):
            if len(paths) == cap:
                return GeodesicCatalog(tuple(paths), False, cap)
            paths.append(path)
    return GeodesicCatalog(tuple(paths), True, cap)


def enumerate_maximal_geodesics(g: Graph, cap: int = DEFAULT_CAP) -> GeodesicCatalog:
    """Enumerate every maximal geodesic of ``g``, up to ``cap`` entries.

    The pair pass (``_maximal_pairs``) finds the maximal pairs, and the walk
    (``_list_geodesics``) lists the geodesics between them, sorted, in the
    pair pass's cost plus the size of the output.  If there are more
    than ``cap`` entries the catalog holds the lexicographically first
    ``cap`` of them with ``complete=False``; ``complete_catalog`` refuses
    such a catalog.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    return _list_geodesics(g.adj, _maximal_pairs(g.adj), cap)


def _length_classes(pairs: _Pairs) -> dict[int, _Pairs]:
    """Length -> the sources of ``pairs`` with a partner that far, ascending,
    shortest first: the lengths of the maximal geodesics, as each is as long
    as its pair's distance and every maximal pair has one."""
    classes: dict[int, _Pairs] = {}
    for source in pairs:
        _, partners, dist = source
        for length in {dist[v] for v in partners}:
            classes.setdefault(length, []).append(source)
    return dict(sorted(classes.items()))


def _greedy_packing(
    adj: Sequence[Sequence[int]], pairs: _Pairs, avoid: Iterable[int]
) -> Iterator[tuple[int, ...]]:
    """P, the greedy packing of ``solvers._greedy_disjoint`` over the sorted
    catalog of the maximal geodesics missing ``avoid``, found from the
    maximal pairs without listing it, each member as it is found.

    That packing goes shortest first, then in catalog order, so by source:
    per length class, each unused source u takes its lexicographically least
    geodesic of the length through unused vertices, if it has one.  P is
    inclusion-maximal, so no such geodesic misses V(P), and with ``avoid``
    empty |P| <= gpack <= gt <= |V(P)|.  So ``avoid`` meets every maximal
    geodesic exactly when nothing is yielded, and a caller asking only that
    stops at the first member.
    """
    used = bytearray(len(adj))
    for x in avoid:
        used[x] = 1
    for length, sources in _length_classes(pairs).items():
        for u, partners, dist in sources:
            if not used[u]:
                ends = {v for v in partners if dist[v] == length}
                path = next(_paths_from(adj, dist, u, ends, used), None)
                if path is not None:
                    for x in path:
                        used[x] = 1
                    yield path


def complete_catalog(g: Graph | None, catalog: GeodesicCatalog) -> GeodesicCatalog:
    """``catalog`` if it holds every maximal geodesic: a capped prefix raises
    ``EnumerationOverflow``, with the bounds 0..n of both invariants when
    ``g`` is given.  Every reader of a listed catalog comes here."""
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
