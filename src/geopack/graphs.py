"""Simple undirected graphs: parsing, named families, products, smoothing."""

from __future__ import annotations

import re
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ContractViolation, DomainError, ParseError, SpecError


class Graph(NamedTuple):
    """Immutable simple undirected graph on vertex ids ``0..n-1``.

    ``adj[v]`` holds the sorted neighbour ids of ``v``.  ``labels``, when
    present, assigns every vertex a distinct integer coordinate tuple;
    product graphs and grids use them to address vertices by position.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[int, ...], ...] | None = None

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[tuple[int, ...]] | None = None,
    ) -> Graph:
        """Build a graph from an edge list, validating simplicity and id ranges."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        neighbour_sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in neighbour_sets[u]:
                raise ValueError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            neighbour_sets[u].add(v)
            neighbour_sets[v].add(u)
        label_tuple: tuple[tuple[int, ...], ...] | None = None
        if labels is not None:
            label_tuple = tuple(tuple(c) for c in labels)
            if len(label_tuple) != n:
                raise ValueError("labels must cover exactly the vertex set")
            if len(set(label_tuple)) != n:
                raise ValueError("labels must be distinct")
        return Graph(n, tuple(tuple(sorted(s)) for s in neighbour_sets), label_tuple)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def label_index(self) -> dict[tuple[int, ...], int]:
        """Map coordinate label -> vertex id (labelled graphs only)."""
        if self.labels is None:
            raise DomainError("graph has no coordinate labels")
        return {lab: v for v, lab in enumerate(self.labels)}


def parse_edge_list(text: str) -> Graph:
    """Parse the plain ``u v`` edge-list format.

    Each non-blank, non-``#`` line holds one whitespace-separated integer
    pair.  An optional first line ``n <count>`` fixes the vertex count;
    without it the count is one plus the largest vertex id.  Self-loops and
    repeated edges are rejected with the offending line number.
    """
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_id = -1
    header_allowed = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header_allowed and parts[0] == "n":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed vertex count {parts[1]!r}") from None
            if declared_n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            header_allowed = False
            continue
        header_allowed = False
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed token in {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = declared_n if declared_n is not None else max_id + 1
    if declared_n is not None and max_id >= declared_n:
        raise ParseError(f"vertex id {max_id} exceeds declared count {declared_n}")
    return Graph.from_edges(n, edges)


def graph_to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format, always with an ``n`` header."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

def _singleton_labels(n: int) -> list[tuple[int, ...]]:
    return [(v,) for v in range(n)]


def path_graph(n: int) -> Graph:
    if n < 1:
        raise SpecError("path requires n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], _singleton_labels(n))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise SpecError("cycle requires n >= 3")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph.from_edges(n, edges, _singleton_labels(n))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise SpecError("complete requires n >= 1")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, edges, _singleton_labels(n))


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """K_{m,n}: part A is 0..m-1, part B is m..m+n-1."""
    if m < 1 or n < 1:
        raise SpecError("complete_bipartite requires m, n >= 1")
    edges = [(a, m + b) for a in range(m) for b in range(n)]
    return Graph.from_edges(m + n, edges, _singleton_labels(m + n))


def star_graph(n: int) -> Graph:
    """K_{1,n}: centre 0 with n leaves."""
    if n < 1:
        raise SpecError("star requires n >= 1")
    return Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)], _singleton_labels(n + 1))


def _effective_labels(g: Graph) -> list[tuple[int, ...]]:
    if g.labels is not None:
        return list(g.labels)
    return _singleton_labels(g.n)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: edges change one coordinate along an edge of that factor."""
    if g.n == 0 or h.n == 0:
        raise SpecError("product factors must be nonempty")
    glab, hlab = _effective_labels(g), _effective_labels(h)
    labels = [glab[gi] + hlab[hi] for gi in range(g.n) for hi in range(h.n)]
    edges: list[tuple[int, int]] = []
    for gi in range(g.n):
        base = gi * h.n
        for hu, hv in h.edges():
            edges.append((base + hu, base + hv))
    for gu, gv in g.edges():
        for hi in range(h.n):
            edges.append((gu * h.n + hi, gv * h.n + hi))
    return Graph.from_edges(g.n * h.n, edges, labels)


def strong_product(g: Graph, h: Graph) -> Graph:
    """Cartesian edges plus both diagonals for every pair of factor edges."""
    box = cartesian_product(g, h)
    edges = box.edges()
    for gu, gv in g.edges():
        for hu, hv in h.edges():
            edges.append((gu * h.n + hu, gv * h.n + hv))
            edges.append((gu * h.n + hv, gv * h.n + hu))
    return Graph.from_edges(box.n, edges, box.labels)


def rook_graph(n: int) -> Graph:
    """K_n box K_n: grid cells adjacent within a row or column."""
    if n < 1:
        raise SpecError("rook requires n >= 1")
    return cartesian_product(complete_graph(n), complete_graph(n))


def diagonal_grid(dims: Sequence[int]) -> Graph:
    """Strong product of paths with coordinate labels."""
    dims = tuple(dims)
    if len(dims) < 1 or any(d < 1 for d in dims):
        raise SpecError("diagonal_grid requires at least one dimension, all >= 1")
    g = path_graph(dims[0])
    for d in dims[1:]:
        g = strong_product(g, path_graph(d))
    return g


def derived_graph(g: Graph) -> Graph:
    """Append x, y, z (ids n, n+1, n+2); z is adjacent to everything, x and y only to z."""
    if g.n == 0:
        raise DomainError("derived graph needs a nonempty base graph")
    x, y, z = g.n, g.n + 1, g.n + 2
    edges = g.edges()
    edges.append((x, z))
    edges.append((y, z))
    edges.extend((v, z) for v in range(g.n))
    return Graph.from_edges(g.n + 3, edges)


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------

class SmoothResult(NamedTuple):
    graph: Graph
    old_to_new: dict[int, int]


def _suppress(adj: list[set[int]], v: int) -> tuple[int, int]:
    """Replace the degree-2 vertex v by the edge between its neighbours x, y; return (x, y)."""
    x, y = adj[v]
    if x in adj[y]:
        raise ContractViolation("contraction would create a parallel edge")
    adj[x].remove(v)
    adj[y].remove(v)
    adj[x].add(y)
    adj[y].add(x)
    adj[v].clear()
    return x, y


def smooth(g: Graph) -> SmoothResult:
    """Repeatedly suppress degree-2 vertices while the graph stays simple.

    A vertex u with exactly two neighbours x, y is removed and replaced by
    the edge xy, but only when xy is not already present (so the result is
    still simple).  The lowest-id eligible vertex is always smoothed first,
    making the result deterministic.  One ascending pass does this: a
    suppression never makes a lower vertex eligible.  Surviving vertices
    (those with neighbours left, plus the isolated vertices of ``g``) are
    relabelled to 0..k-1; ``old_to_new`` maps surviving original ids to new ids.
    """
    adj = [set(nbrs) for nbrs in g.adj]
    for v in range(g.n):
        if len(adj[v]) == 2:
            x, y = adj[v]
            if x not in adj[y]:
                _suppress(adj, v)
    kept = [v for v in range(g.n) if adj[v] or not g.adj[v]]
    old_to_new = {old: new for new, old in enumerate(kept)}
    edges = [
        (old_to_new[u], old_to_new[v])
        for u in kept
        for v in adj[u]
        if u < v
    ]
    labels = None
    if g.labels is not None:
        labels = [g.labels[v] for v in kept]
    return SmoothResult(Graph.from_edges(len(kept), edges, labels), old_to_new)


# ---------------------------------------------------------------------------
# Family specs
# ---------------------------------------------------------------------------

# Each named family: its parameter count (None: one or more) and its builder.
_FAMILIES: dict[str, tuple[int | None, Callable[..., Graph]]] = {
    "path": (1, path_graph),
    "cycle": (1, cycle_graph),
    "complete": (1, complete_graph),
    "complete_bipartite": (2, complete_bipartite_graph),
    "star": (1, star_graph),
    "rook": (1, rook_graph),
    "diagonal_grid": (None, lambda *dims: diagonal_grid(dims)),
}
_PRODUCTS: dict[str, Callable[[Graph, Graph], Graph]] = {
    "cartesian_product": cartesian_product,
    "strong_product": strong_product,
}


class FamilySpec(NamedTuple):
    """A named graph family with integer parameters, or a product of two specs."""

    kind: str
    params: tuple[int, ...] = ()
    operands: tuple[FamilySpec, ...] = ()


def generate(spec: FamilySpec) -> Graph:
    """Instantiate a family spec from the ``_FAMILIES`` or ``_PRODUCTS`` table."""
    kind, p = spec.kind, spec.params
    if kind in _PRODUCTS:
        if len(spec.operands) != 2:
            raise SpecError(f"{kind} needs exactly two operands")
        return _PRODUCTS[kind](*map(generate, spec.operands))
    if kind not in _FAMILIES:
        raise SpecError(f"unknown family kind {kind!r}")
    count, build = _FAMILIES[kind]
    if count is None and not p:
        raise SpecError(f"{kind} needs at least one dimension")
    if count is not None and len(p) != count:
        raise SpecError(f"{kind} takes {count} parameter(s), got {len(p)}")
    return build(*p)


_NAME_RE = re.compile(r"[A-Za-z_]+")
_INT_RE = re.compile(r"\d+")


def parse_family(text: str) -> FamilySpec:
    """Parse the family mini-grammar.

    Atoms are ``name:params`` such as ``complete:6``, ``rook:3`` or
    ``diagonal_grid:2,3,4``; products nest as ``cartesian(a,b)`` and
    ``strong(a,b)``, e.g. ``strong(path:3,path:4)``.
    """
    spec, rest = _parse_spec(text.strip())
    if rest:
        raise SpecError(f"trailing input in family spec: {rest!r}")
    return spec


def _parse_spec(s: str) -> tuple[FamilySpec, str]:
    m = _NAME_RE.match(s)
    if not m:
        raise SpecError(f"cannot parse family spec at {s!r}")
    name = m.group(0)
    rest = s[m.end():]
    kind = f"{name}_product"
    if kind in _PRODUCTS:
        if not rest.startswith("("):
            raise SpecError(f"{name} product needs '{name}(a,b)' syntax")
        left, rest = _parse_spec(rest[1:])
        if not rest.startswith(","):
            raise SpecError("product needs two comma-separated operands")
        right, rest = _parse_spec(rest[1:])
        if not rest.startswith(")"):
            raise SpecError("unbalanced parentheses in family spec")
        return FamilySpec(kind, (), (left, right)), rest[1:]
    params: list[int] = []
    if rest.startswith(":"):
        rest = rest[1:]
        while True:
            m = _INT_RE.match(rest)
            if not m:
                raise SpecError(f"expected integer parameter at {rest!r}")
            params.append(int(m.group(0)))
            rest = rest[m.end():]
            if rest.startswith(",") and _INT_RE.match(rest[1:]):
                rest = rest[1:]
                continue
            break
    if name not in _FAMILIES:
        raise SpecError(f"unknown family {name!r}")
    return FamilySpec(name, tuple(params)), rest
