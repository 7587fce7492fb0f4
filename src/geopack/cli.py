"""Command-line interface.

Subcommands: compute, enumerate, generate, verify, ratio, tree.  Exit codes:
0 success, 1 verification failure (even beside a budget stop), 2 input
error, 3 budget exceeded, 141 stdout closed by its reader (128 + SIGPIPE;
no message).
This module owns the JSON output format: the private ``_*_json`` helpers
turn the library's records into the documents it prints, so no other module
imports ``json``.  JSON output is byte-deterministic for a fixed input and
seed (timings are suppressed there; text mode reports them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import SUITE_NAMES
from .errors import BudgetExceeded, DomainError, ParseError, SpecError
from .geodesics import GeodesicCatalog, enumerate_maximal_geodesics
from .graphs import FamilySpec, Graph, generate, graph_to_edge_list, parse_edge_list, parse_family
from .solvers import DEFAULT_LIMITS, SolveLimits, SolveResult, _solve, duality_check
from .trees import LeafPairSet, gpack_tree


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="edge-list file ('-' reads stdin)")
    group.add_argument("--family", help="family spec, e.g. complete:6 or strong(path:3,path:4)")


def _add_limit_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cap", type=int, default=DEFAULT_LIMITS.max_geodesics, help="maximal-geodesic enumeration cap"
    )
    parser.add_argument(
        "--time-budget", type=float, default=DEFAULT_LIMITS.time_budget, help="solver time budget in seconds"
    )
    parser.add_argument(
        "--node-budget", type=int, default=DEFAULT_LIMITS.node_budget, help="solver search-node budget"
    )


def _limits(args: argparse.Namespace) -> SolveLimits:
    return SolveLimits(
        max_geodesics=args.cap,
        time_budget=args.time_budget,
        node_budget=args.node_budget,
    )


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.family is not None:
        return generate(parse_family(args.family))
    if args.file == "-":
        return parse_edge_list(sys.stdin.read())
    with open(args.file, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle.read())


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _graph_json(g: Graph) -> dict:
    doc: dict = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels is not None:
        doc["labels"] = {str(v): list(lab) for v, lab in enumerate(g.labels)}
    return doc


def _catalog_json(catalog: GeodesicCatalog) -> dict:
    return {
        "complete": catalog.complete,
        "count": catalog.count,
        "geodesics": [list(p) for p in catalog.paths],
    }


def _result_json(invariant: str, result: SolveResult) -> dict:
    # A fixed key order; millis is zeroed so the output is reproducible.
    if invariant == "gpack":
        witness = [list(p.vertices) for p in result.witness.geodesics]  # type: ignore[union-attr]
    else:
        witness = list(result.witness.vertices)  # type: ignore[union-attr]
    return {
        "invariant": invariant,
        "value": result.value,
        "exact": True,
        "witness": witness,
        "bounds": {"lower": result.value, "upper": result.value},
        "stats": {"nodes": result.stats.nodes, "millis": 0},
    }


def _tree_json(value: int, pairs: LeafPairSet) -> dict:
    return {"gpack": value, "pairs": [list(p) for p in pairs.pairs]}


def cmd_compute(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    limits = _limits(args)
    wanted = ["gpack", "gt"] if args.invariant == "both" else [args.invariant]
    docs = list(zip(wanted, _solve(g, limits, wanted)))
    if args.format == "json":
        payload = [_result_json(inv, res) for inv, res in docs]
        _emit_json(payload[0] if len(payload) == 1 else payload)
        return 0
    for invariant, result in docs:
        print(f"{invariant} = {result.value} (exact; nodes={result.stats.nodes}, millis={result.stats.millis})")
        if invariant == "gpack":
            for p in result.witness.geodesics:  # type: ignore[union-attr]
                print("  geodesic:", " ".join(map(str, p.vertices)))
        else:
            print("  vertices:", " ".join(map(str, result.witness.vertices)))  # type: ignore[union-attr]
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    catalog = enumerate_maximal_geodesics(g, cap=args.cap)
    if args.format == "json":
        _emit_json(_catalog_json(catalog))
    else:
        for p in catalog.paths:
            print(" ".join(map(str, p)))
        print(f"# count={catalog.count} complete={str(catalog.complete).lower()}")
    return 0 if catalog.complete else 3


def cmd_generate(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if args.format == "json":
        _emit_json(_graph_json(g))
    else:
        sys.stdout.write(graph_to_edge_list(g))
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    value, pairs = gpack_tree(g)
    if args.format == "json":
        _emit_json(_tree_json(value, pairs))
    else:
        print(f"gpack = {value}")
        for u, v in pairs.pairs:
            print(f"  pair: {u} {v}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite  # the suites load only for the commands that run them

    if args.count < 1:
        raise DomainError(f"verify needs --count >= 1, got {args.count}")
    if args.n < 1:
        raise DomainError(f"verify needs --n >= 1, got {args.n}")
    if args.n < 3 and args.suite in ("reduction", "all"):  # a reduction input has n >= 3
        raise DomainError(f"verify {args.suite} needs --n >= 3, got {args.n}")
    limits = _limits(args)
    results = run_suite(
        args.suite, size=args.n, count=args.count, seed=args.seed, limits=limits
    )
    failures = 0
    inconclusive = 0
    for item in results:
        if item.passed is None:
            inconclusive += 1
            print(f"INCONCLUSIVE {item.label}: {item.detail}")
        elif item.passed:
            print(f"PASS {item.label}")
        else:
            failures += 1
            print(f"FAIL {item.label}: {item.detail}")
    passed = sum(1 for item in results if item.passed)
    print(f"# {passed}/{len(results)} passed")
    if failures:
        return 1
    return 3 if inconclusive else 0


_RATIO_FAMILIES = ("rook", "complete", "complete_bipartite")


def cmd_ratio(args: argparse.Namespace) -> int:
    from .verify import rook_ratio_curve

    if args.min < 2:
        raise DomainError("ratio table needs n >= 2")
    if args.min > args.max:
        raise DomainError(f"ratio table needs --min <= --max, got {args.min} > {args.max}")
    limits = _limits(args)
    rows = []
    for n in range(args.min, args.max + 1):
        g = generate(FamilySpec(args.family, (n, n) if args.family == "complete_bipartite" else (n,)))
        report = duality_check(g, limits)
        row = {
            "n": n,
            "gpack": report.gpack,
            "gt": report.gt,
            "ratio": str(report.ratio),
        }
        if args.family == "rook":
            row["curve"] = str(rook_ratio_curve(n))
        rows.append(row)
    if args.format == "json":
        _emit_json({"family": args.family, "rows": rows})
        return 0
    headers = list(rows[0].keys())
    widths = {h: max(len(h), max(len(str(r[h])) for r in rows)) for h in headers}
    print("  ".join(h.ljust(widths[h]) for h in headers).rstrip())
    for r in rows:
        print("  ".join(str(r[h]).ljust(widths[h]) for h in headers).rstrip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geopack",
        description="Exact geodesic packing (gpack) and geodesic transversal (gt) toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute gpack and/or gt of a graph")
    _add_input_options(p)
    p.add_argument("--invariant", choices=("gpack", "gt", "both"), default="both")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_limit_options(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("enumerate", help="list every maximal geodesic")
    _add_input_options(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cap", type=int, default=DEFAULT_LIMITS.max_geodesics)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("generate", help="emit a named family as an edge list or JSON")
    _add_input_options(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("tree", help="tree packing number with leaf-pair witness")
    _add_input_options(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--n", type=int, default=12, help="input size for randomized suites")
    p.add_argument("--count", type=int, default=25, help="number of random inputs")
    p.add_argument("--seed", type=int, default=0)
    _add_limit_options(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ratio", help="gt/gpack ratio table for a family range")
    p.add_argument("family", choices=_RATIO_FAMILIES)
    p.add_argument("--min", type=int, default=2)
    p.add_argument("--max", type=int, default=4)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_limit_options(p)
    p.set_defaults(func=cmd_ratio)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the exit flush
        return code
    except BrokenPipeError:
        # The reader has gone (``| head``): not an input error.  Point stdout
        # at devnull so the interpreter's flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BudgetExceeded as exc:
        bounds = ""
        if exc.lower is not None or exc.upper is not None:
            bounds = f" (bounds: lower={exc.lower}, upper={exc.upper})"
        print(f"budget exceeded: {exc}{bounds}", file=sys.stderr)
        return 3
    except (ParseError, SpecError, DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
