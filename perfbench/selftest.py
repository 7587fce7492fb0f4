"""Self-test of the benchmark's checks: each must reject a wrong value or a corrupted witness.

Usage: python3 perfbench/selftest.py  (exit 0 when every corruption is caught)

``bench.run`` also calls ``run()`` before measuring, so a checker that stops
catching errors fails the benchmark instead of passing everything.
"""

from __future__ import annotations

import sys
from pathlib import Path

import oracle


def run() -> list[str]:
    """Names of the corruptions the checks failed to catch (empty when all is well)."""
    from geopack import complete_bipartite_graph, enumerate_maximal_geodesics, gpack_report, gt_report, gpack_tree, path_graph, star_graph

    g = complete_bipartite_graph(3, 3)
    ref = oracle.Reference(g.n, g.edges())
    gp, gt = gpack_report(g), gt_report(g)
    packing = [list(p.vertices) for p in gp.witness.geodesics]
    transversal = list(gt.witness.vertices)
    want = (2, 3)  # closed forms floor(2n/3) and n for K(3,3)
    other = [v for v in range(g.n) if v not in packing[0]][0]

    def solution(gp_value=gp.value, paths=packing, gt_value=gt.value, verts=transversal):
        return oracle.check_solution(ref, want, (gp_value, paths), (gt_value, verts))

    cases = {
        "correct output": not solution(),
        "wrong gpack value": solution(gp_value=gp.value + 1),
        "wrong gt value": solution(gt_value=gt.value - 1),
        "overlapping packing": solution(paths=[packing[0], packing[0]]),
        "non-maximal geodesic": solution(paths=[packing[0][:-1], packing[1]]),
        "non-geodesic path": solution(paths=[packing[0][:1] + [other] + packing[0][1:], packing[1]]),
        "short packing": solution(paths=packing[:1]),
        "transversal missing a geodesic": oracle.check_transversal(ref.geodesics, transversal[:-1], gt.value - 1),
        "transversal with a repeat": solution(verts=transversal[:-1] + transversal[:1]),
    }

    listed = [list(p.vertices) for p in enumerate_maximal_geodesics(g).geodesics]
    cases["correct catalog"] = oracle.check_catalog(ref, listed) is None
    cases["catalog missing a geodesic"] = oracle.check_catalog(ref, listed[1:])

    star = star_graph(4)
    star_ref = oracle.Reference(star.n, star.edges())
    value, pairs = gpack_tree(star)
    cases["correct tree pairs"] = oracle.check_tree_pairs(star_ref, pairs.pairs, value) is None
    cases["tree pair ending at the centre"] = oracle.check_tree_pairs(star_ref, [(0, 1)], 1)

    path = path_graph(5)
    path_ref = oracle.Reference(path.n, path.edges())
    cases["correct path"] = oracle.check_packing(path_ref.adj, path_ref.dist, [[0, 1, 2, 3, 4]], 1) is None
    cases["path packing of a sub-path"] = oracle.check_packing(path_ref.adj, path_ref.dist, [[1, 2, 3]], 1)
    return [name for name, caught in cases.items() if not caught]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    missed = run()
    for name in missed:
        print(f"not caught: {name}")
    print("selftest:", "FAILED" if missed else "all corruptions caught")
    sys.exit(1 if missed else 0)
