from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from networkx.generators.atlas import graph_atlas_g

import geopack as gp

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_kept_catalog():
    """Every test starts with no kept catalog, so no outcome depends on test order."""
    gp.solvers._kept = None


def counted(monkeypatch, name: str, *modules) -> list:
    """Patch ``name`` in each of ``modules`` with one counting wrapper of the
    first module's function; returns the argument tuples of its calls."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def walks(monkeypatch) -> list:
    """The calls of the walk, ``geodesics._list_geodesics``: from the solvers'
    own binding and from ``enumerate_maximal_geodesics``."""
    return counted(monkeypatch, "_list_geodesics", gp.geodesics, gp.solvers)


def nx_to_graph(G: nx.Graph) -> gp.Graph:
    nodes = sorted(G.nodes())
    idx = {v: i for i, v in enumerate(nodes)}
    edges = sorted((min(idx[u], idx[v]), max(idx[u], idx[v])) for u, v in G.edges())
    return gp.Graph.from_edges(len(nodes), edges)


@pytest.fixture(scope="session")
def atlas_connected() -> list[gp.Graph]:
    """Every connected graph on at most 7 vertices, up to isomorphism."""
    graphs = []
    for G in graph_atlas_g():
        if G.number_of_nodes() and nx.is_connected(G):
            graphs.append(nx_to_graph(G))
    assert len(graphs) == 996
    return graphs


@pytest.fixture(scope="session")
def small_trees() -> list[gp.Graph]:
    """Every tree on at most 10 vertices, up to isomorphism."""
    trees = [gp.Graph.from_edges(1, [])]
    for n in range(2, 11):
        trees.extend(nx_to_graph(T) for T in nx.nonisomorphic_trees(n))
    assert len(trees) == 201
    return trees


@st.composite
def graphs_st(draw, min_n: int = 1, max_n: int = 7, connected: bool = False):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges: set[tuple[int, int]] = set()
    if pairs:
        edges.update(draw(st.sets(st.sampled_from(pairs))))
    if connected:
        for v in range(1, n):
            edges.add((draw(st.integers(0, v - 1)), v))
    return gp.Graph.from_edges(n, sorted(edges))


@st.composite
def trees_st(draw, min_n: int = 1, max_n: int = 14):
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    return gp.Graph.from_edges(n, edges)
