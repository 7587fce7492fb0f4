"""Distances, geodesic predicates, and exhaustive maximal-geodesic enumeration."""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .errors import ContractViolation, DomainError, EnumerationOverflow
from .graphs import Graph

DEFAULT_CAP = 100_000

INF = math.inf


@dataclass(frozen=True)
class DistanceTable:
    """All-pairs hop distances; unreachable pairs hold ``math.inf``."""

    rows: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def dist(self, u: int, v: int) -> float:
        return self.rows[u][v]

    def is_connected(self) -> bool:
        return all(d < INF for row in self.rows for d in row)

    def diameter(self) -> int:
        """Largest distance; raises DomainError when disconnected or empty."""
        if self.n == 0:
            raise DomainError("diameter of the empty graph is undefined")
        worst = 0.0
        for row in self.rows:
            for d in row:
                if d == INF:
                    raise DomainError("diameter undefined for a disconnected graph")
                if d > worst:
                    worst = d
        return int(worst)


def all_pairs_distances(g: Graph) -> DistanceTable:
    """BFS from every vertex."""
    rows: list[tuple[float, ...]] = []
    for source in range(g.n):
        dist = [INF] * g.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in g.adj[u]:
                if dist[w] == INF:
                    dist[w] = du + 1
                    queue.append(w)
        rows.append(tuple(dist))
    return DistanceTable(tuple(rows))


@dataclass(frozen=True)
class Geodesic:
    """A shortest path stored in canonical orientation (first id <= last id)."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a geodesic has at least one vertex")
        if self.vertices[0] > self.vertices[-1]:
            raise ValueError("geodesic not in canonical orientation")

    @staticmethod
    def from_vertices(seq: Sequence[int]) -> Geodesic:
        verts = tuple(seq)
        if verts and verts[0] > verts[-1]:
            verts = verts[::-1]
        return Geodesic(verts)

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


@dataclass(frozen=True)
class GeodesicCatalog:
    """Deduplicated maximal geodesics of one graph, sorted lexicographically.

    ``complete`` is False when the full catalog has more than ``cap`` entries,
    in which case the stored entries are its lexicographically first ``cap``.
    """

    geodesics: tuple[Geodesic, ...]
    complete: bool
    cap: int

    @property
    def count(self) -> int:
        return len(self.geodesics)


def is_geodesic(g: Graph, path: Sequence[int], table: DistanceTable | None = None) -> bool:
    """True iff ``path`` is a walk of distinct adjacent vertices of shortest length.

    Ill-formed sequences (repeats, non-adjacent steps, unknown ids) return
    False rather than raising.
    """
    verts = tuple(path)
    if not verts:
        return False
    if any(not (0 <= v < g.n) for v in verts):
        return False
    if len(set(verts)) != len(verts):
        return False
    for a, b in zip(verts, verts[1:]):
        if not g.has_edge(a, b):
            return False
    if table is None:
        table = all_pairs_distances(g)
    return len(verts) - 1 == table.dist(verts[0], verts[-1])


def is_maximal_geodesic(
    g: Graph,
    p: Geodesic | Sequence[int],
    table: DistanceTable | None = None,
) -> bool:
    """True iff no one-vertex extension of ``p`` at either end is a geodesic."""
    verts = tuple(p.vertices) if isinstance(p, Geodesic) else tuple(p)
    if table is None:
        table = all_pairs_distances(g)
    if not is_geodesic(g, verts, table):
        raise ContractViolation(f"sequence {verts!r} is not a geodesic")
    # One-step extensions only involve the endpoints and the pair distance,
    # so maximality is shared by every geodesic between them.  An extension
    # is a geodesic when its ends lie len(verts) apart.
    u, v, ext = verts[0], verts[-1], len(verts)
    return all(table.dist(w, v) != ext for w in g.adj[u]) and all(
        table.dist(u, w) != ext for w in g.adj[v]
    )


def enumerate_maximal_geodesics(g: Graph, cap: int = DEFAULT_CAP) -> GeodesicCatalog:
    """Enumerate every maximal geodesic of ``g``, up to ``cap`` entries.

    For each source u, the maximal partners v >= u (pairs that extend at
    neither end) come from the distance rows, and one depth-first walk from u
    lists the geodesics to them, lowest neighbour first.  The catalog comes
    out sorted with no sort step, and the work is O(n*|E|) plus the size of
    the output.  An isolated vertex u contributes the single-vertex geodesic
    (u,).  If there are more than ``cap`` entries the catalog holds the
    lexicographically first ``cap`` of them with ``complete=False``; callers
    that need exactness must treat that as an overflow.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    n, adj = g.n, g.adj
    rows = all_pairs_distances(g).rows
    # far[u][v] is the largest d(w, v) over neighbours w of u: the pair (u, v)
    # extends past u exactly when far[u][v] > d(u, v).  An isolated vertex
    # keeps its own row, which makes it its only partner.  Lists, because
    # tuple(map(...)) grows by reallocation and left peak RSS about 0.5 MB
    # higher after a few hundred small graphs.
    far = [
        list(map(max, rows[nbrs[0]], *(rows[w] for w in nbrs))) if nbrs else row
        for nbrs, row in zip(adj, rows)
    ]
    found: list[Geodesic] = []
    for u in range(n):
        row, far_u = rows[u], far[u]
        partners = [v for v in range(u, n) if far_u[v] <= row[v] >= far[v][u] and row[v] < INF]
        if not partners:
            continue
        # Sweep u's BFS layers inward from the deepest partner, keeping each
        # vertex with a kept neighbour one layer further out: the kept
        # vertices are those on a geodesic from u to a partner.
        succ: dict[int, Sequence[int]] = dict.fromkeys(partners, ())
        depth = max(row[v] for v in partners)
        for x in sorted([x for x in range(n) if row[x] < depth], key=row.__getitem__, reverse=True):
            d1 = row[x] + 1
            kids = [y for y in adj[x] if y in succ and row[y] == d1]
            if kids:
                succ[x] = kids
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
            elif len(found) == cap:
                return GeodesicCatalog(tuple(found), False, cap)
            else:
                found.append(Geodesic((*path, y)))
    return GeodesicCatalog(tuple(found), True, cap)


def shortest_maximal_geodesic_length(catalog: GeodesicCatalog) -> int:
    """Minimum length over the full catalog."""
    if not catalog.complete:
        raise EnumerationOverflow("catalog is incomplete; raise the enumeration cap")
    if catalog.count == 0:
        raise DomainError("empty catalog has no shortest maximal geodesic")
    return min(p.length for p in catalog.geodesics)


def is_uniform_geodesic(g: Graph, catalog: GeodesicCatalog) -> bool:
    """True iff every maximal geodesic length equals the diameter."""
    table = all_pairs_distances(g)
    if g.n == 0 or not table.is_connected():
        raise DomainError("uniform-geodesic check needs a connected graph")
    if not catalog.complete:
        raise EnumerationOverflow("catalog is incomplete; raise the enumeration cap")
    diam = table.diameter()
    return all(p.length == diam for p in catalog.geodesics)


def catalog_to_json_dict(catalog: GeodesicCatalog) -> dict:
    return {
        "complete": catalog.complete,
        "count": catalog.count,
        "geodesics": [list(p.vertices) for p in catalog.geodesics],
    }


def catalog_to_json(catalog: GeodesicCatalog) -> str:
    return json.dumps(catalog_to_json_dict(catalog), indent=2)
