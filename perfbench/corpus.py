"""Workload inputs for the geopack benchmark, built from the seed alone.

Every input is an ``Instance``: a graph plus the closure that rebuilds it
from its source (family spec, edge list or Pruefer draw), so the traced run
can time graph construction on its own.  Random draws use one
``random.Random`` per instance, keyed by seed and index, so instance ``i``
does not depend on how many instances came before it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from geopack import Graph, SolveLimits, generate, parse_edge_list, parse_family, random_tree

ROOT = Path(__file__).resolve().parent.parent

# Closed-form and structured graphs, most taking 5 ms to 1 s to solve (a
# sub-millisecond solve is swamped by machine noise); gt search on rook:5 and
# the larger grids and products dominates a pass.  rook:6 (gt 15 s with
# witness, the ROADMAP target) and diagonal_grid:2,3,4 (gpack 34 s) are left
# out: one solve would fill a whole run, and on a shared 2-core machine a
# single window of that length varies 1.4x from run to run.
FAMILY_SPECS = (
    "rook:4", "rook:5", "complete:12",
    *(f"complete_bipartite:{n},{n}" for n in (6, 7, 8)),
    "path:12", "star:8",
    *(f"diagonal_grid:{d}" for d in (
        "3,4", "2,6", "2,7", "3,5", "3,6", "4,4", "4,5", "4,6", "5,6", "2,2,3", "2,2,4", "2,3,3", "3,3,3")),
    *(f"cartesian({a},{b})" for a, b in (
        ("cycle:3", "cycle:5"), ("cycle:3", "cycle:6"), ("cycle:3", "cycle:7"), ("cycle:4", "cycle:4"),
        ("cycle:4", "cycle:5"), ("cycle:4", "cycle:6"), ("cycle:5", "cycle:5"), ("path:3", "cycle:5"),
        ("path:3", "cycle:6"), ("path:4", "cycle:4"), ("path:4", "cycle:5"), ("path:5", "cycle:4"),
        ("complete:3", "complete:4"), ("complete:3", "complete:5"), ("complete:4", "complete:4"))),
    *(f"strong({a},{b})" for a, b in (
        ("cycle:4", "cycle:4"), ("cycle:5", "cycle:5"), ("cycle:5", "path:3"), ("cycle:6", "path:2"),
        ("cycle:6", "path:3"), ("cycle:7", "path:2"))),
)
FIG1 = "data/fig1.edges"

# Large catalogs: enumeration and the O(m^2) conflict masks dominate, search
# is trivial (0 nodes).  From 6.8k (7,7) to 24k (8,8) geodesics, each solve
# taking 0.05-0.3 s, so a 30 s run times every grid about 20 times and
# reports its median.  diagonal_grid:9,9 (81k geodesics, 2.9 s, 880 MB) is
# left out: a handful of its solves would fill a run.
CATALOG_SPECS = (
    "diagonal_grid:7,7", "diagonal_grid:6,8", "diagonal_grid:4,4,4",
    "diagonal_grid:7,8", "diagonal_grid:3,3,3,3", "diagonal_grid:8,8",
)

# Connected G(n, m) at twice the edge density of a tree, and random trees of
# similar solve time (20-30 ms each), one graph to three trees.  Many small
# draws rather than a few large ones: the total work of a pass then differs
# little from seed to seed (search nodes per pass spread 0.05 over ten
# seeds), and every input is timed once or twice in a 30 s run.  G(22, 46)
# and trees on 50-100 vertices have heavier tails (13 s for one tree at
# n = 80), and with them a pass's total work moved by 1.5x between seeds.
# Each graph costs a fresh MILP check (0.12 s) in every run of a new seed;
# trees are checked by gpack_tree in under a millisecond.
RANDOM_GRAPH_N, RANDOM_GRAPH_M = 18, 36
RANDOM_TREE_N = 42
# Distinct instances per pass.  The p75 and p90 solve times of a pass are set
# by a seed's slower tree draws; over ten seeds p75 spread 0.066 (quartile
# distance over median) with 200 instances and 0.055 with 400.
RANDOM_PASS = 400

CLI_COMPUTE_SPECS = ("complete:6", "rook:3", "cartesian(cycle:5,cycle:4)")
CLI_ENUMERATE_SPEC = "diagonal_grid:6,6"
CLI_GRAPH_N, CLI_GRAPH_M = 14, 18
CLI_TREE_N = 50

# Budgets far above what the seed code needs (rook:5 gt: 9k nodes, 0.6 s),
# so a regression shows as a counted failure instead of a hang.
LIMITS = {
    "families": SolveLimits(time_budget=60.0, node_budget=2_000_000),
    "random": SolveLimits(time_budget=30.0, node_budget=2_000_000),
    "catalog": SolveLimits(time_budget=60.0, node_budget=100_000),
    "cli": SolveLimits(time_budget=30.0, node_budget=2_000_000),
}


@dataclass
class Instance:
    id: str
    build: Callable[[], Graph]
    graph: Graph
    is_tree: bool = False
    spec: str | None = None
    argv: tuple[str, ...] = ()
    stdin: str | None = None

    @property
    def kind(self) -> str:
        """The CLI subcommand, or ``compute`` for library instances (both invariants)."""
        return self.argv[0] if self.argv else "compute"


def _instance(id: str, build: Callable[[], Graph], **kw) -> Instance:
    return Instance(id, build, build(), **kw)


def _family(spec: str, id: str | None = None, **kw) -> Instance:
    return _instance(id or spec, lambda: generate(parse_family(spec)), spec=spec,
                     is_tree=spec.split(":")[0] in ("path", "star"), **kw)


def _edge_list_graph(id: str, text: str, **kw) -> Instance:
    return _instance(id, lambda: parse_edge_list(text), **kw)


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_gnm(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a uniform connected G(n, m) draw, by rejection."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        edges = sorted(rng.sample(pairs, m))
        if _connected(n, edges):
            return edges


def edge_list_text(g: Graph) -> str:
    return f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())


def random_instance(seed: int, i: int) -> Instance:
    key = f"{seed}/{i}"
    if i % 4 == 0:
        edges = connected_gnm(RANDOM_GRAPH_N, RANDOM_GRAPH_M, random.Random(key))
        return _instance(f"g{i}", lambda: Graph.from_edges(RANDOM_GRAPH_N, edges))
    return _instance(f"t{i}", lambda: random_tree(RANDOM_TREE_N, random.Random(key)), is_tree=True)


def _cli_instances(seed: int) -> list[Instance]:
    limits = LIMITS["cli"]
    base = ("--time-budget", f"{limits.time_budget:g}", "--node-budget", str(limits.node_budget))
    compute = ("compute", "--invariant", "both", "--format", "json")
    out = [_family(s, f"cli:compute:{s}", argv=compute + ("--family", s) + base) for s in CLI_COMPUTE_SPECS]
    fig1 = (ROOT / FIG1).read_text(encoding="utf-8")
    out.append(_edge_list_graph(f"cli:compute:{FIG1}", fig1, argv=compute + ("--file", FIG1) + base))
    rng = random.Random(f"{seed}/cli")
    edges = connected_gnm(CLI_GRAPH_N, CLI_GRAPH_M, rng)
    text = edge_list_text(Graph.from_edges(CLI_GRAPH_N, edges))
    out.append(_edge_list_graph("cli:compute:random", text, argv=compute + ("--file", "-") + base, stdin=text))
    out.append(_family(CLI_ENUMERATE_SPEC, f"cli:enumerate:{CLI_ENUMERATE_SPEC}",
                       argv=("enumerate", "--format", "json", "--family", CLI_ENUMERATE_SPEC)))
    text = edge_list_text(random_tree(CLI_TREE_N, rng))
    out.append(_edge_list_graph("cli:tree:random", text, is_tree=True,
                                argv=("tree", "--format", "json", "--file", "-"), stdin=text))
    return out


def build(workload: str, seed: int) -> list[Instance]:
    """All instances of one workload, in the order a pass visits them."""
    if workload == "families":
        return [_family(s) for s in FAMILY_SPECS] + [_edge_list_graph(FIG1, (ROOT / FIG1).read_text(encoding="utf-8"))]
    if workload == "catalog":
        return [_family(s) for s in CATALOG_SPECS]
    if workload == "random":
        return [random_instance(seed, i) for i in range(RANDOM_PASS)]
    if workload == "cli":
        return _cli_instances(seed)
    raise ValueError(f"unknown workload {workload!r}")
