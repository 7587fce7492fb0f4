"""Exact geodesic packing and geodesic transversal toolkit.

A maximal geodesic is a shortest path that no one-vertex extension keeps
shortest.  gpack(G) is the maximum number of pairwise vertex-disjoint
maximal geodesics; gt(G) is the minimum number of vertices meeting every
maximal geodesic.  This package enumerates maximal geodesics exhaustively,
solves both invariants exactly at desk scale, runs a near-linear algorithm
on trees, and provides the known closed forms with verified witnesses.

``import geopack`` loads no submodule: a public name, or a submodule read
as ``geopack.<module>``, imports its module on first use (PEP 562), so a
CLI call compiles only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# The built-in verification suites, which ``geopack.verify`` runs; the CLI
# offers them without loading that module.
SUITE_NAMES = ("formulas", "trees", "reduction", "grids", "all")

# Every submodule, with the public names it exports.
_EXPORTS = {
    "errors": (
        "BudgetExceeded", "ContractViolation", "DomainError", "EnumerationOverflow", "GeopackError",
        "ParseError", "SpecError", "Unsupported",
    ),
    "geodesics": (
        "DEFAULT_CAP", "Geodesic", "GeodesicCatalog", "all_pairs_distances", "complete_catalog",
        "enumerate_maximal_geodesics", "is_geodesic", "is_maximal_geodesic", "is_uniform_geodesic",
        "shortest_maximal_geodesic_length",
    ),
    "formulas": ("diagonal_grid_packing", "formula_value", "rook_complement_set", "uniform_product_bound"),
    "graphs": (
        "FamilySpec", "Graph", "SmoothResult", "cartesian_product", "complete_bipartite_graph",
        "complete_graph", "cycle_graph", "derived_graph", "diagonal_grid", "generate", "graph_to_edge_list",
        "parse_edge_list", "parse_family", "path_graph", "rook_graph", "smooth", "star_graph",
        "strong_product",
    ),
    "solvers": (
        "DEFAULT_LIMITS", "DualityReport", "Packing", "SolveLimits", "SolveResult", "Transversal",
        "duality_check", "gpack_report", "gpack_upper_bound", "gpack_value", "gt_report", "gt_value",
        "induced_p3_packing_exact", "verify_np_reduction", "verify_tree_equality",
    ),
    "trees": ("LeafPairSet", "gpack_tree", "is_tree", "random_tree", "tree_from_pruefer"),
    "verify": (),
    "cli": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
