"""Geodesic packing on trees: near-linear leaf-pair extraction.

Every maximal geodesic of a tree joins two leaves, and the packing number
can be computed by repeatedly suppressing degree-2 vertices, extracting one
leaf pair at an end support vertex, and deleting that vertex together with
all its leaves.  The recorded pairs are end-vertices of pairwise disjoint
maximal geodesics of the original tree.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Collection, NamedTuple, Sequence

from .errors import ContractViolation, DomainError
from .graphs import Graph, _suppress


class LeafPairSet(NamedTuple):
    """End-vertex pairs of the packed geodesics, sorted by first element.

    Pairs satisfy u < v except for the degenerate single-vertex witness
    (v, v) returned for a one-vertex tree.
    """

    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)


def is_tree(g: Graph) -> bool:
    """Connected and acyclic; the empty graph does not count."""
    if g.n == 0:
        return False
    if g.edge_count != g.n - 1:
        return False
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    reached = 1
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                queue.append(w)
    return reached == g.n


def _is_end_support(adj: Sequence[Collection[int]], v: int) -> bool:
    # A support vertex (one with a leaf neighbour) with at most one non-leaf neighbour.
    leaf_nbrs = sum(1 for w in adj[v] if len(adj[w]) == 1)
    return leaf_nbrs >= 1 and len(adj[v]) - leaf_nbrs <= 1


def gpack_tree(t: Graph) -> tuple[int, LeafPairSet]:
    """Geodesic packing number of a tree with a leaf-pair witness.

    The witness pairs use the original vertex ids: degree-2 suppression
    (the ``_suppress`` step ``smooth`` uses) and deletions operate in place
    on the input ids, never relabelling, and a vertex stays live while it
    has neighbours.  End support vertices are consumed lowest-id first,
    fixing the witness deterministically.
    """
    if t.n == 0:
        return 0, LeafPairSet(())
    if not is_tree(t):
        raise DomainError("gpack_tree needs a tree")
    if t.n == 1:
        return 1, LeafPairSet(((0, 0),))

    adj: list[set[int]] = [set(nbrs) for nbrs in t.adj]
    for v in range(t.n):
        if len(adj[v]) == 2:
            _suppress(adj, v)
    candidates = [v for v in range(t.n) if adj[v]]  # ascending, so already a heap
    live = len(candidates)

    pairs: list[tuple[int, int]] = []
    while live >= 3:
        # Every vertex whose status can change is pushed again, so the lazy
        # queue holds an end support vertex while three vertices remain.
        while candidates:
            p = heapq.heappop(candidates)
            if _is_end_support(adj, p):
                break
        else:
            raise ContractViolation("tree invariant broken: no end support vertex")
        leaves = sorted(w for w in adj[p] if len(adj[w]) == 1)
        pairs.append((leaves[0], leaves[1]))
        non_leaf = [w for w in adj[p] if len(adj[w]) > 1]
        for w in leaves:
            adj[w].clear()
        adj[p].clear()
        live -= 1 + len(leaves)
        if non_leaf:
            w = non_leaf[0]
            adj[w].discard(p)
            if len(adj[w]) == 2:
                x, y = _suppress(adj, w)
                live -= 1
                heapq.heappush(candidates, x)
                heapq.heappush(candidates, y)
            else:
                heapq.heappush(candidates, w)

    if live == 2:
        a, b = (v for v in range(t.n) if adj[v])
        pairs.append((a, b))

    pairs.sort()
    return len(pairs), LeafPairSet(tuple(pairs))


# ---------------------------------------------------------------------------
# Tree generation (verification suites and tests)
# ---------------------------------------------------------------------------

def tree_from_pruefer(seq: Sequence[int], n: int) -> Graph:
    """Decode a Pruefer sequence of length n-2 over 0..n-1."""
    if n < 2:
        raise DomainError("Pruefer decoding needs n >= 2")
    if len(seq) != n - 2:
        raise DomainError("Pruefer sequence must have length n - 2")
    degree = [1] * n
    for a in seq:
        degree[a] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for a in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, a), max(leaf, a)))
        degree[a] -= 1
        if degree[a] == 1:
            heapq.heappush(leaves, a)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labelled tree via a random Pruefer sequence."""
    if n < 1:
        raise DomainError("random tree needs n >= 1")
    if n == 1:
        return Graph.from_edges(1, [])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_pruefer(seq, n)
