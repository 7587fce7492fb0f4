"""Independent gpack/gt oracle: 0-1 integer programs solved by HiGHS (scipy).

gpack: maximise the number of chosen maximal geodesics, each vertex in at
most one.  gt: minimise the number of chosen vertices, each maximal geodesic
hit at least once.  Geodesics come from the benchmark's own enumeration.

Usage:
  python3 perfbench/milp.py < graphs.json     # [{"n", "edges"}] -> [{"gpack", "gt", "geodesics"}]
  python3 perfbench/milp.py --write-expected  # recompute perfbench/expected.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle  # noqa: E402

DEFAULT_SEED = 1


def _solve(objective, matrix, lower, upper) -> int:
    size = objective.shape[0]
    res = milp(
        objective,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=np.ones(size),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove optimality: {res.message}")
    return round(abs(res.fun))


def solve(n: int, edges) -> dict:
    geos = oracle.maximal_geodesics(oracle.adjacency(n, edges))
    m = len(geos)
    if m == 0:
        return {"gpack": 0, "gt": 0, "geodesics": 0}
    rows = [v for p in geos for v in p]
    cols = [j for j, p in enumerate(geos) for _ in p]
    incidence = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, m))
    gpack = _solve(-np.ones(m), incidence, -np.inf, 1)
    gt = _solve(np.ones(n), incidence.T.tocsr(), 1, np.inf)
    return {"gpack": gpack, "gt": gt, "geodesics": m}


def write_expected() -> None:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import corpus

    graphs = {}
    for workload in ("families", "cli", "random"):
        for inst in corpus.build(workload, DEFAULT_SEED):
            if not inst.is_tree:
                graphs[inst.id if workload != "random" else f"seed{DEFAULT_SEED}:{inst.id}"] = inst.graph
    values = {}
    for label, g in graphs.items():
        key = oracle.graph_key(g.n, g.edges())
        values[key] = {"label": label, **solve(g.n, g.edges())}
        print(label, values[key], file=sys.stderr, flush=True)
    doc = {"default_seed": DEFAULT_SEED, "source": "HiGHS MILP via perfbench/milp.py", "values": values}
    oracle.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    if sys.argv[1:] == ["--write-expected"]:
        write_expected()
        return 0
    graphs = json.load(sys.stdin)
    json.dump([solve(g["n"], g["edges"]) for g in graphs], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
