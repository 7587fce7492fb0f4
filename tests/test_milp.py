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


def _connected_draws(count: int, p: float, rng: random.Random):
    for k in range(count):
        while True:
            g = random_graph(20 + k % 5, p, rng)
            if math.inf not in gp.all_pairs_distances(g)[0]:
                yield g
                break


@pytest.mark.parametrize("seed", [1, 2])
def test_solvers_match_highs_on_random_graphs(seed):
    for g in _connected_draws(3, 0.2, random.Random(seed)):
        geos = gp.enumerate_maximal_geodesics(g).geodesics
        m = len(geos)
        rows = [v for p in geos for v in p.vertices]
        cols = [j for j, p in enumerate(geos) for _ in p.vertices]
        incidence = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, m))

        value, packing = gp.gpack_exact(g)
        assert value == _milp(-np.ones(m), incidence, -np.inf, 1)
        assert packing.size == value
        used: set[int] = set()
        for p in packing.geodesics:
            assert p in geos and gp.is_maximal_geodesic(g, p)
            assert not used.intersection(p.vertices)
            used.update(p.vertices)

        value, transversal = gp.gt_exact(g)
        assert value == _milp(np.ones(g.n), incidence.T.tocsr(), 1, np.inf)
        assert transversal.size == value
        assert all(set(transversal.vertices).intersection(p.vertices) for p in geos)
