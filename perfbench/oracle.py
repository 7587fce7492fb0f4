"""Checks on geopack outputs that share no code with the solvers under test.

The benchmark's own BFS and maximal-geodesic enumeration validate every
witness; expected values come from closed forms (``geopack.formulas``),
``gpack_tree`` on trees, values stored in ``expected.json`` (computed with
the HiGHS MILP in ``milp.py``), or that MILP run in a child process.  Each
check returns ``None`` when the output is right and a reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from collections import deque
from pathlib import Path
from typing import Sequence

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"


def adjacency(n: int, edges: Sequence[Sequence[int]]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def graph_key(n: int, edges: Sequence[Sequence[int]]) -> str:
    """Content key of a graph, independent of how it was built."""
    canon = sorted((min(u, v), max(u, v)) for u, v in edges)
    text = f"{n};" + ",".join(f"{u}-{v}" for u, v in canon)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def distances(adj: Sequence[set[int]]) -> list[list[int]]:
    """Hop distances from BFS; -1 marks an unreachable pair."""
    n = len(adj)
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(dist)
    return rows


def _pair_maximal(adj, dist, u: int, v: int) -> bool:
    d = dist[u][v]
    return all(dist[w][v] != d + 1 for w in adj[u]) and all(dist[u][w] != d + 1 for w in adj[v])


def maximal_geodesics(adj: Sequence[set[int]], dist=None) -> list[tuple[int, ...]]:
    """Every maximal geodesic, first vertex <= last, sorted."""
    dist = dist if dist is not None else distances(adj)
    n = len(adj)
    out: list[tuple[int, ...]] = []
    for u in range(n):
        if not adj[u]:
            out.append((u,))
        for v in range(u + 1, n):
            if dist[u][v] < 0 or not _pair_maximal(adj, dist, u, v):
                continue
            stack = [(u,)]
            while stack:
                path = stack.pop()
                last = path[-1]
                if last == v:
                    out.append(path)
                    continue
                for w in adj[last]:
                    if dist[w][v] == dist[last][v] - 1:
                        stack.append(path + (w,))
    out.sort()
    return out


def _geodesic_error(adj, dist, path: Sequence[int]) -> str | None:
    n = len(adj)
    if not path or any(not (0 <= v < n) for v in path) or len(set(path)) != len(path):
        return f"{list(path)} is not a simple vertex sequence"
    if any(b not in adj[a] for a, b in zip(path, path[1:])):
        return f"{list(path)} is not a path"
    if len(path) - 1 != dist[path[0]][path[-1]]:
        return f"{list(path)} is not a shortest path"
    if len(path) == 1:
        return None if not adj[path[0]] else f"{list(path)} extends"
    if not _pair_maximal(adj, dist, path[0], path[-1]):
        return f"{list(path)} is not maximal"
    return None


def check_packing(adj, dist, paths: Sequence[Sequence[int]], value: int) -> str | None:
    """Pairwise disjoint maximal geodesics, as many as the claimed value."""
    if len(paths) != value:
        return f"packing has {len(paths)} geodesics, value is {value}"
    used: set[int] = set()
    for p in paths:
        err = _geodesic_error(adj, dist, p)
        if err:
            return err
        if used.intersection(p):
            return f"{list(p)} overlaps another packed geodesic"
        used.update(p)
    return None


def check_transversal(geodesics, vertices: Sequence[int], value: int) -> str | None:
    """A vertex set meeting every maximal geodesic, of the claimed size."""
    if len(set(vertices)) != len(vertices) or len(vertices) != value:
        return f"transversal {list(vertices)} does not have {value} distinct vertices"
    hit = set(vertices)
    for p in geodesics:
        if hit.isdisjoint(p):
            return f"transversal misses {list(p)}"
    return None


def tree_path(adj, u: int, v: int) -> list[int]:
    parent = {u: u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for w in adj[x]:
            if w not in parent:
                parent[w] = x
                queue.append(w)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return path[::-1]


def check_value(what: str, got: int, want: int | None) -> str | None:
    if want is None:
        return f"no independent value for {what}"
    return None if got == want else f"{what} = {got}, expected {want}"


class Reference:
    """Everything the checks need to know about one graph, computed once."""

    def __init__(self, n: int, edges: Sequence[Sequence[int]]) -> None:
        self.adj = adjacency(n, edges)
        self.dist = distances(self.adj)
        self.geodesics = maximal_geodesics(self.adj, self.dist)


def check_solution(ref: Reference, want: tuple[int, int], gpack: tuple[int, list], gt: tuple[int, list]) -> list[str]:
    """gpack and gt values against ``want``, and both witnesses against the graph."""
    errors = [
        check_value("gpack", gpack[0], want[0]),
        check_value("gt", gt[0], want[1]),
        check_packing(ref.adj, ref.dist, gpack[1], gpack[0]),
        check_transversal(ref.geodesics, gt[1], gt[0]),
    ]
    return [e for e in errors if e]


def check_tree_pairs(ref: Reference, pairs: Sequence[Sequence[int]], value: int) -> str | None:
    """Leaf pairs whose tree paths form a packing of ``value`` maximal geodesics."""
    return check_packing(ref.adj, ref.dist, [tree_path(ref.adj, u, v) for u, v in pairs], value)


def check_catalog(ref: Reference, listed: Sequence[Sequence[int]]) -> str | None:
    """An enumerated catalog must equal the independent one, in order."""
    listed = [tuple(p) for p in listed]
    if listed == ref.geodesics:
        return None
    missing = sorted(set(ref.geodesics) - set(listed))[:1]
    extra = sorted(set(listed) - set(ref.geodesics))[:1]
    return f"catalog has {len(listed)} geodesics, expected {len(ref.geodesics)} (missing {missing}, extra {extra})"


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def milp_values(graphs: Sequence[tuple[int, list]]) -> list[dict]:
    """gpack and gt of each (n, edges) from the HiGHS MILP, in a child process.

    The child keeps scipy out of this process, so it moves no memory metric.
    """
    payload = json.dumps([{"n": n, "edges": [list(e) for e in edges]} for n, edges in graphs])
    proc = subprocess.run(
        [sys.executable, str(HERE / "milp.py")],
        input=payload, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"MILP oracle failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout)
