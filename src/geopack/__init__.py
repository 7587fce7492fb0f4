"""Exact geodesic packing and geodesic transversal toolkit.

A maximal geodesic is a shortest path that no one-vertex extension keeps
shortest.  gpack(G) is the maximum number of pairwise vertex-disjoint
maximal geodesics; gt(G) is the minimum number of vertices meeting every
maximal geodesic.  This package enumerates maximal geodesics exhaustively,
solves both invariants exactly at desk scale, runs a near-linear algorithm
on trees, and provides the known closed forms with verified witnesses.
"""

from .errors import (
    BudgetExceeded,
    ContractViolation,
    DomainError,
    EnumerationOverflow,
    GeopackError,
    ParseError,
    SpecError,
    Unsupported,
)
from .geodesics import (
    DEFAULT_CAP,
    DistanceTable,
    Geodesic,
    GeodesicCatalog,
    all_pairs_distances,
    catalog_to_json,
    enumerate_maximal_geodesics,
    is_geodesic,
    is_maximal_geodesic,
    is_uniform_geodesic,
    shortest_maximal_geodesic_length,
)
from .formulas import (
    diagonal_grid_packing,
    formula_value,
    rook_complement_set,
    uniform_product_bound,
)
from .graphs import (
    FamilySpec,
    Graph,
    SmoothResult,
    cartesian_product,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    derived_graph,
    diagonal_grid,
    generate,
    graph_to_edge_list,
    graph_to_json,
    parse_edge_list,
    parse_family,
    path_graph,
    rook_graph,
    smooth,
    star_graph,
    strong_product,
)
from .solvers import (
    DEFAULT_LIMITS,
    DualityReport,
    Packing,
    SolveLimits,
    SolveResult,
    Transversal,
    duality_check,
    gpack_exact,
    gpack_report,
    gpack_upper_bound,
    gpack_value,
    gt_exact,
    gt_report,
    gt_value,
    induced_p3_packing_exact,
    verify_np_reduction,
)
from .trees import (
    LeafPairSet,
    find_end_support_vertex,
    gpack_tree,
    is_tree,
    random_tree,
    tree_from_pruefer,
)

__version__ = "0.1.0"

# The built-in verification suites, which ``geopack.verify`` runs; the CLI
# offers them without loading that module.
SUITE_NAMES = ("formulas", "trees", "reduction", "grids", "all")


def __getattr__(name: str):
    # The verification suites load on first use: without a bytecode cache,
    # loading them would add about 5 % to a bare ``import geopack``.
    if name == "verify_tree_equality":
        from .verify import verify_tree_equality
        return verify_tree_equality
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BudgetExceeded",
    "ContractViolation",
    "DEFAULT_CAP",
    "DEFAULT_LIMITS",
    "DistanceTable",
    "DomainError",
    "DualityReport",
    "EnumerationOverflow",
    "FamilySpec",
    "Geodesic",
    "GeodesicCatalog",
    "GeopackError",
    "Graph",
    "LeafPairSet",
    "Packing",
    "ParseError",
    "SmoothResult",
    "SolveLimits",
    "SolveResult",
    "SpecError",
    "Transversal",
    "Unsupported",
    "all_pairs_distances",
    "cartesian_product",
    "catalog_to_json",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "derived_graph",
    "diagonal_grid",
    "diagonal_grid_packing",
    "duality_check",
    "enumerate_maximal_geodesics",
    "find_end_support_vertex",
    "formula_value",
    "generate",
    "gpack_exact",
    "gpack_report",
    "gpack_tree",
    "gpack_upper_bound",
    "gpack_value",
    "graph_to_edge_list",
    "graph_to_json",
    "gt_exact",
    "gt_report",
    "gt_value",
    "induced_p3_packing_exact",
    "is_geodesic",
    "is_maximal_geodesic",
    "is_tree",
    "is_uniform_geodesic",
    "parse_edge_list",
    "parse_family",
    "path_graph",
    "random_tree",
    "rook_complement_set",
    "rook_graph",
    "shortest_maximal_geodesic_length",
    "smooth",
    "star_graph",
    "strong_product",
    "tree_from_pruefer",
    "uniform_product_bound",
    "verify_np_reduction",
    "verify_tree_equality",
]
