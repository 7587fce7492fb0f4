"""gpack and gt against 0-1 integer programs solved by HiGHS, beyond brute-force range.

gpack: maximise the number of chosen catalog entries, each vertex in at most
one.  gt: minimise the number of chosen vertices, each catalog entry hit at
least once.  Only the catalog is shared with the library; the branch and
bound itself is checked against an independent solver.
"""

from __future__ import annotations

import math
import random

import pytest

import geopack as gp
from geopack.verify import random_graph

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")


def _milp(objective, matrix, lower, upper) -> int:
    res = optimize.milp(
        objective,
        constraints=optimize.LinearConstraint(matrix, lower, upper),
        integrality=np.ones(objective.shape[0]),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.status == 0, res.message
    return round(abs(res.fun))


def _connected_draws(count: int, p: float, rng: random.Random, sizes: range):
    for k in range(count):
        while True:
            g = random_graph(sizes[k % len(sizes)], p, rng)
            if math.inf not in gp.all_pairs_distances(g)[0]:
                yield g
                break


def _check_against_highs(g: gp.Graph) -> None:
    geos = gp.enumerate_maximal_geodesics(g).geodesics
    m = len(geos)
    rows = [v for p in geos for v in p.vertices]
    cols = [j for j, p in enumerate(geos) for _ in p.vertices]
    incidence = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, m))

    report = gp.gpack_report(g)

    value, packing = report.value, report.witness
    assert value == _milp(-np.ones(m), incidence, -np.inf, 1)
    assert packing.size == value
    used: set[int] = set()
    for p in packing.geodesics:
        assert p in geos and gp.is_maximal_geodesic(g, p)
        assert not used.intersection(p.vertices)
        used.update(p.vertices)

    report = gp.gt_report(g)

    value, transversal = report.value, report.witness
    assert value == _milp(np.ones(g.n), incidence.T.tocsr(), 1, np.inf)
    assert transversal.size == value
    assert all(set(transversal.vertices).intersection(p.vertices) for p in geos)


@pytest.mark.parametrize("seed", [1, 2])
def test_solvers_match_highs_on_random_graphs(seed):
    for g in _connected_draws(3, 0.2, random.Random(seed), range(20, 25)):
        _check_against_highs(g)


@pytest.mark.slow
def test_solvers_match_highs_at_n_31_to_40():
    # Sparse draws on 31, 34, 37 and 40 vertices, with catalogs of several
    # hundred entries.
    for g in _connected_draws(4, 0.15, random.Random(1), range(31, 41, 3)):
        _check_against_highs(g)
