"""Closed-form invariant values and explicit witness constructions."""

from __future__ import annotations

import math
from itertools import product as iter_product
from typing import TYPE_CHECKING, Sequence

from .errors import ContractViolation, DomainError, Unsupported
from .geodesics import Geodesic, _greedy_packing, _length_classes, _maximal_pairs, is_maximal_geodesic
from .graphs import FamilySpec, Graph, diagonal_grid, rook_graph
from .solvers import Packing

if TYPE_CHECKING:  # rook_ratio_curve imports it when it runs
    from fractions import Fraction

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
    """The explicit optimal packing of the diagonal grid ``diagonal_grid(dims)``.

    Dimensions are taken as given, so the vertex ids are those of that
    grid.  The packing consists of one axis-aligned path along the first
    axis of smallest size for every combination of the other coordinates,
    in product order.  Each member is verified maximal against the grid.
    """
    dims = tuple(dims)
    if len(dims) < 2 or min(dims) < 2:
        raise DomainError("diagonal-grid packing needs r >= 2 and all dims >= 2")
    axis = dims.index(min(dims))
    grid = diagonal_grid(dims)
    by_label = grid.label_index()
    members: list[Geodesic] = []
    used: set[int] = set()
    for combo in iter_product(*(range(d) for d in dims[:axis] + dims[axis + 1:])):
        verts = tuple(by_label[combo[:axis] + (i,) + combo[axis:]] for i in range(dims[axis]))
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
    the remaining n^2-2n+2 vertices hit every maximal geodesic.  That is
    checked on the maximal pairs, with no catalog, so no cap applies: the
    greedy packing that avoids the complement is empty.
    """
    if n < 2:
        raise DomainError("rook complement construction needs n >= 2")
    g = rook_graph(n)
    by_label = g.label_index()
    chosen = {by_label[(0, j)] for j in range(n - 1)}
    chosen.update(by_label[(i, n - 1)] for i in range(1, n))
    complement = [v for v in range(g.n) if v not in chosen]
    if any(_greedy_packing(g.adj, _maximal_pairs(g.adj), complement)):
        raise ContractViolation("complement set contains a maximal geodesic")
    return tuple(sorted(chosen))


def uniform_product_bound(graphs: Sequence[Graph]) -> int:
    """Packing upper bound for a box product of uniform geodesic factors.

    Every factor must be connected and uniform geodesic (each maximal
    geodesic as long as the diameter); the bound is the product of the
    orders divided by one plus the sum of the diameters, rounded down.
    Both facts come from the maximal pairs, with no catalog: a factor is
    uniform when its pairs have one distance, which is then its diameter.
    """
    if len(graphs) < 1:
        raise DomainError("bound needs at least one factor")
    order = 1
    diam_sum = 0
    for g in graphs:
        pairs = _maximal_pairs(g.adj)
        if not pairs or g.n in pairs[0][2]:  # n marks a vertex the first BFS missed
            raise DomainError("uniform-geodesic check needs a connected graph")
        lengths = list(_length_classes(pairs))
        if len(lengths) != 1:
            raise DomainError("bound applies only to uniform geodesic factors")
        order *= g.n
        diam_sum += lengths[0]
    return order // (diam_sum + 1)


def rook_ratio_curve(n: int) -> Fraction:
    """The rook-graph lower-bound curve 3(1 - 2/n + 2/n^2) as an exact rational."""
    from fractions import Fraction

    return Fraction(3 * (n * n - 2 * n + 2), n * n)
