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
    Geodesic,
    GeodesicCatalog,
    all_pairs_distances,
    complete_catalog,
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
    gpack_report,
    gpack_upper_bound,
    gpack_value,
    gt_report,
    gt_value,
    induced_p3_packing_exact,
    verify_np_reduction,
    verify_tree_equality,
)
from .trees import (
    LeafPairSet,
    gpack_tree,
    is_tree,
    random_tree,
    tree_from_pruefer,
)

__version__ = "0.1.0"

# The built-in verification suites, which ``geopack.verify`` runs; the CLI
# offers them without loading that module.
SUITE_NAMES = ("formulas", "trees", "reduction", "grids", "all")


__all__ = [
    "BudgetExceeded",
    "ContractViolation",
    "DEFAULT_CAP",
    "DEFAULT_LIMITS",
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
    "complete_bipartite_graph",
    "complete_catalog",
    "complete_graph",
    "cycle_graph",
    "derived_graph",
    "diagonal_grid",
    "diagonal_grid_packing",
    "duality_check",
    "enumerate_maximal_geodesics",
    "formula_value",
    "generate",
    "gpack_report",
    "gpack_tree",
    "gpack_upper_bound",
    "gpack_value",
    "graph_to_edge_list",
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
