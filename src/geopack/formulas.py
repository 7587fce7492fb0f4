"""Closed-form invariant values and explicit witness constructions."""

from __future__ import annotations

import math
from itertools import product as iter_product
from typing import Sequence

from .errors import ContractViolation, DomainError, Unsupported
from .geodesics import (
    Geodesic,
    complete_catalog,
    is_maximal_geodesic,
    is_uniform_geodesic,
)
from .graphs import FamilySpec, Graph, diagonal_grid, rook_graph
from .solvers import Packing

_INVARIANTS = ("gpack", "gt")


def formula_value(family: FamilySpec, invariant: str) -> int:
    """Closed-form value for a supported family/invariant pair.

    Supported: paths (both invariants, value 1), complete graphs
    (floor(n/2) and n-1), balanced complete bipartite graphs (floor(2n/3)
    and n), rook graphs (gt only, n^2-2n+2) and diagonal grids (gpack only,
    the product of all dimensions except the smallest).  Anything else
    raises Unsupported; parameters outside a formula's hypotheses raise
    DomainError.
    """
    if invariant not in _INVARIANTS:
        raise ValueError(f"invariant must be one of {_INVARIANTS}")
    kind = family.kind
    params = family.params
    if kind == "path":
        _need_params(kind, params, 1)
        if params[0] < 1:
            raise DomainError("path formula needs n >= 1")
        return 1
    if kind == "complete":
        _need_params(kind, params, 1)
        n = params[0]
        if n < 2:
            raise DomainError("complete-graph formulas need n >= 2")
        return n // 2 if invariant == "gpack" else n - 1
    if kind == "complete_bipartite":
        _need_params(kind, params, 2)
        m, n = params
        if m != n:
            raise DomainError("bipartite formulas cover only the balanced case")
        if n < 2:
            raise DomainError("balanced bipartite formulas need n >= 2")
        return (2 * n) // 3 if invariant == "gpack" else n
    if kind == "rook":
        _need_params(kind, params, 1)
        n = params[0]
        if invariant != "gt":
            raise Unsupported("no closed form for gpack of rook graphs")
        if n < 1:
            raise DomainError("rook formula needs n >= 1")
        return n * n - 2 * n + 2
    if kind == "diagonal_grid":
        if invariant != "gpack":
            raise Unsupported("no closed form for gt of diagonal grids")
        dims = tuple(sorted(params))
        if len(dims) < 2 or dims[0] < 2:
            raise DomainError("diagonal-grid formula needs r >= 2 and all dims >= 2")
        return math.prod(dims[1:])
    raise Unsupported(f"no closed form for family {kind!r}")


def _need_params(kind: str, params: tuple[int, ...], count: int) -> None:
    if len(params) != count:
        raise DomainError(f"{kind} takes {count} parameter(s)")


def diagonal_grid_packing(dims: Sequence[int]) -> Packing:
    """The explicit optimal packing of a diagonal grid.

    Dimensions are normalized ascending; the packing consists of one
    axis-aligned path along the shortest axis for every combination of the
    remaining coordinates.  Each member is verified maximal against the
    generated grid.
    """
    dims = tuple(sorted(dims))
    if len(dims) < 2 or dims[0] < 2:
        raise DomainError("diagonal-grid packing needs r >= 2 and all dims >= 2")
    grid = diagonal_grid(dims)
    by_label = grid.label_index()
    members: list[Geodesic] = []
    used: set[int] = set()
    for combo in iter_product(*(range(d) for d in dims[1:])):
        verts = tuple(by_label[(i,) + combo] for i in range(dims[0]))
        # Raises ContractViolation when the column is not a geodesic.
        if not is_maximal_geodesic(grid, verts):
            raise ContractViolation(f"grid column {combo} is not maximal")
        if used.intersection(verts):
            raise ContractViolation("grid columns overlap")
        used.update(verts)
        members.append(Geodesic(verts))
    return Packing(tuple(members))


def rook_complement_set(n: int) -> tuple[int, ...]:
    """The geodesic-free vertex set whose complement is an optimal rook transversal.

    Takes all of row 0 except the last column, plus all of the last column
    except row 0: 2n-2 vertices containing no complete maximal geodesic, so
    the remaining n^2-2n+2 vertices hit every maximal geodesic.
    """
    if n < 2:
        raise DomainError("rook complement construction needs n >= 2")
    g = rook_graph(n)
    by_label = g.label_index()
    chosen = {by_label[(0, j)] for j in range(n - 1)}
    chosen.update(by_label[(i, n - 1)] for i in range(1, n))
    for p in complete_catalog(g).paths:
        if chosen.issuperset(p):
            raise ContractViolation(f"complement set contains the geodesic {p}")
    return tuple(sorted(chosen))


def uniform_product_bound(graphs: Sequence[Graph]) -> int:
    """Packing upper bound for a box product of uniform geodesic factors.

    Every factor must be connected and uniform geodesic (each maximal
    geodesic as long as the diameter); the bound is the product of the
    orders divided by one plus the sum of the diameters, rounded down.
    """
    if len(graphs) < 1:
        raise DomainError("bound needs at least one factor")
    order = 1
    diam_sum = 0
    for g in graphs:
        catalog = complete_catalog(g)
        if not is_uniform_geodesic(g, catalog):
            raise DomainError("bound applies only to uniform geodesic factors")
        order *= g.n
        diam_sum += len(catalog.paths[0]) - 1  # every entry is a diameter long
    return order // (diam_sum + 1)
