from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import counted, graphs_st, walks
from hypothesis import given, settings
from hypothesis import strategies as st

from geopack import enumerate_maximal_geodesics, graph_to_edge_list
from geopack.cli import _catalog_json, main

ROOT = Path(__file__).resolve().parent.parent
FIG1 = str(ROOT / "data" / "fig1.edges")


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_compute_both_text(capsys):
    code, out = run(capsys, "compute", "--family", "complete:6", "--invariant", "both")
    assert code == 0
    assert "gpack = 3" in out and "gt = 5" in out


def test_compute_both_enumerates_once(capsys, monkeypatch):
    import geopack.solvers

    argv = ("compute", "--family", "rook:3", "--format", "json")
    single = [json.loads(run(capsys, *argv, "--invariant", inv)[1]) for inv in ("gpack", "gt")]
    calls = walks(monkeypatch)
    monkeypatch.setattr(geopack.solvers, "_kept", None)  # the single runs kept rook:3
    code, out = run(capsys, *argv, "--invariant", "both")
    assert code == 0 and len(calls) == 1
    assert out == json.dumps(single, indent=2) + "\n"


def test_both_invariant_solves_number_the_catalog_once(capsys, monkeypatch):
    import geopack.solvers

    calls = []
    number_once = geopack.solvers._number_sets

    def counting(*args, **kwargs):
        calls.append(args)
        return number_once(*args, **kwargs)

    monkeypatch.setattr(geopack.solvers, "_number_sets", counting)
    # Each counted solve starts with no kept catalog: compute keeps rook:3.
    monkeypatch.setattr(geopack.solvers, "_kept", None)
    assert run(capsys, "compute", "--family", "rook:3", "--invariant", "both", "--format", "json")[0] == 0
    assert len(calls) == 1
    monkeypatch.setattr(geopack.solvers, "_kept", None)
    geopack.solvers.duality_check(geopack.rook_graph(3))
    assert len(calls) == 2
    monkeypatch.setattr(geopack.solvers, "_kept", None)
    assert geopack.solvers.verify_tree_equality(geopack.path_graph(5))
    assert len(calls) == 3


def test_compute_text_has_no_trailing_space(capsys, monkeypatch):
    # An empty transversal prints a bare label; other lines are as before.
    monkeypatch.setattr("sys.stdin", io.StringIO("n 0\n"))
    code, out = run(capsys, "compute", "--file", "-")
    assert code == 0 and out.splitlines()[-1] == "  vertices:"
    code, out = run(capsys, "compute", "--family", "path:4")
    assert code == 0 and out.splitlines()[1::2] == ["  geodesic: 0 1 2 3", "  vertices: 0"]
    for line in out.splitlines()[::2]:
        assert line.startswith(("gpack = 1 (exact; nodes=", "gt = 1 (exact; nodes="))


def test_compute_file_gpack(capsys):
    code, out = run(capsys, "compute", "--file", FIG1, "--invariant", "gpack", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant"] == "gpack" and doc["value"] == 4 and doc["exact"] is True


def test_compute_rook_gt(capsys):
    code, out = run(capsys, "compute", "--family", "rook:3", "--invariant", "gt")
    assert code == 0 and "gt = 5" in out


def test_compute_both_json_is_a_pair(capsys):
    code, out = run(capsys, "compute", "--family", "path:4", "--format", "json")
    docs = json.loads(out)
    assert code == 0 and [d["invariant"] for d in docs] == ["gpack", "gt"]
    assert [d["value"] for d in docs] == [1, 1]


def test_compute_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO("0 1\n1 2\n"))
    code, out = run(capsys, "compute", "--file", "-", "--invariant", "gt")
    assert code == 0 and "gt = 1" in out


def test_enumerate_json(capsys):
    code, out = run(capsys, "enumerate", "--family", "path:5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"complete": True, "count": 1, "geodesics": [[0, 1, 2, 3, 4]]}


# The catalog of diagonal_grid:3,4, as `enumerate --format json` lists it.
GRID_3_4 = [
    [0, 1, 2, 3], [0, 1, 2, 7], [0, 1, 6, 3], [0, 1, 6, 7], [0, 1, 6, 11], [0, 4, 8], [0, 4, 9],
    [0, 5, 2, 3], [0, 5, 2, 7], [0, 5, 6, 3], [0, 5, 6, 7], [0, 5, 6, 11], [0, 5, 8], [0, 5, 9],
    [0, 5, 10, 7], [0, 5, 10, 11], [1, 4, 8], [1, 4, 9], [1, 5, 8], [1, 5, 9], [1, 5, 10], [1, 6, 9],
    [1, 6, 10], [2, 5, 9], [2, 5, 10], [2, 6, 9], [2, 6, 10], [2, 6, 11], [2, 7, 10], [2, 7, 11],
    [3, 2, 1, 4], [3, 2, 5, 4], [3, 2, 5, 8], [3, 6, 1, 4], [3, 6, 5, 4], [3, 6, 5, 8], [3, 6, 9, 4],
    [3, 6, 9, 8], [3, 6, 10], [3, 6, 11], [3, 7, 10], [3, 7, 11], [4, 1, 2, 7], [4, 1, 6, 7],
    [4, 1, 6, 11], [4, 5, 2, 7], [4, 5, 6, 7], [4, 5, 6, 11], [4, 5, 10, 7], [4, 5, 10, 11],
    [4, 9, 6, 7], [4, 9, 6, 11], [4, 9, 10, 7], [4, 9, 10, 11], [7, 2, 5, 8], [7, 6, 5, 8],
    [7, 6, 9, 8], [7, 10, 5, 8], [7, 10, 9, 8], [8, 5, 6, 11], [8, 5, 10, 11], [8, 9, 6, 11],
    [8, 9, 10, 11],
]


def test_enumerate_json_bytes(capsys):
    code, out = run(capsys, "enumerate", "--family", "diagonal_grid:3,4", "--format", "json")
    entries = ",\n".join("    [\n" + ",\n".join(f"      {v}" for v in p) + "\n    ]" for p in GRID_3_4)
    head = '{\n  "complete": true,\n  "count": 63,\n  "geodesics": [\n'
    assert code == 0 and out == head + entries + "\n  ]\n}\n"
    assert len(out.encode()) == 2918


def enumerate_json(g, cap: int) -> str:
    # The stdout of `enumerate --format json` on g read from stdin, run in-process.
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(graph_to_edge_list(g))
    try:
        with contextlib.redirect_stdout(out):
            main(["enumerate", "--file", "-", "--format", "json", "--cap", str(cap)])
    finally:
        sys.stdin = saved
    return out.getvalue()


@settings(max_examples=200)
@given(graphs_st(min_n=0, max_n=10), st.data())
def test_enumerate_json_is_the_json_dump(g, data):
    # enumerate writes the catalog document itself; it must stay the exact
    # text json.dumps gives, for complete, capped and empty catalogs alike.
    full = enumerate_maximal_geodesics(g).count
    cap = data.draw(st.integers(1, full + 2))
    for cap in (cap, full + 1):
        catalog = enumerate_maximal_geodesics(g, cap=cap)
        assert enumerate_json(g, cap) == json.dumps(_catalog_json(catalog), indent=2) + "\n"


def test_enumerate_cap_exit_code(capsys):
    code, out = run(capsys, "enumerate", "--family", "complete:5", "--cap", "3")
    assert code == 3 and "complete=false" in out
    _, full = run(capsys, "enumerate", "--family", "complete:5", "--format", "json")
    code, out = run(capsys, "enumerate", "--family", "complete:5", "--cap", "3", "--format", "json")
    doc = json.loads(out)
    assert code == 3 and not doc["complete"]
    assert doc["geodesics"] == json.loads(full)["geodesics"][:3]


def test_generate_edge_list(capsys):
    code, out = run(capsys, "generate", "--family", "cycle:4")
    assert code == 0
    assert out == "n 4\n0 1\n0 3\n1 2\n2 3\n"


def test_generate_json_carries_labels(capsys):
    code, out = run(capsys, "generate", "--family", "diagonal_grid:2,2", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["n"] == 4 and doc["labels"]["0"] == [0, 0]


def test_tree_json(capsys):
    code, out = run(capsys, "tree", "--family", "path:5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"gpack": 1, "pairs": [[0, 4]]}


def test_tree_text(capsys):
    code, out = run(capsys, "tree", "--family", "path:5")
    assert code == 0 and out == "gpack = 1\n  pair: 0 4\n"


def test_tree_rejects_cycles(capsys):
    code = main(["tree", "--family", "cycle:5"])
    assert code == 2


def test_ratio_table(capsys):
    code, out = run(capsys, "ratio", "rook", "--min", "2", "--max", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = {row["n"]: row for row in doc["rows"]}
    assert rows[3]["gt"] == 5 and rows[3]["gpack"] == 3
    assert rows[3]["ratio"] == "5/3" and rows[3]["curve"] == "5/3"
    assert rows[4]["gt"] == 10 and rows[4]["ratio"] == "2"


def test_ratio_complete_approaches_two(capsys):
    code, out = run(capsys, "ratio", "complete", "--min", "2", "--max", "7", "--format", "json")
    rows = json.loads(out)["rows"]
    assert code == 0
    assert [r["ratio"] for r in rows] == ["1", "2", "3/2", "2", "5/3", "2"]


def test_ratio_complete_bipartite(capsys):
    code, out = run(capsys, "ratio", "complete_bipartite", "--min", "2", "--max", "4", "--format", "json")
    rows = json.loads(out)["rows"]
    assert code == 0
    assert [r["gpack"] for r in rows] == [1, 2, 2] and [r["gt"] for r in rows] == [2, 3, 4]


def test_ratio_text_table(capsys):
    code, out = run(capsys, "ratio", "complete", "--min", "2", "--max", "3")
    lines = out.splitlines()
    assert code == 0
    assert lines == ["n  gpack  gt  ratio", "2  1      1   1", "3  1      2   2"]


def test_ratio_needs_n_at_least_two(capsys):
    assert main(["ratio", "rook", "--min", "1"]) == 2
    assert capsys.readouterr().err == "error: ratio table needs n >= 2\n"


def test_verify_all_passes(capsys):
    code, out = run(capsys, "verify", "all")
    assert code == 0 and "FAIL" not in out


def test_verify_formulas_passes(capsys):
    code, out = run(capsys, "verify", "formulas")
    assert code == 0
    assert "FAIL" not in out


def test_verify_grids_passes(capsys):
    code, out = run(capsys, "verify", "grids")
    assert code == 0
    assert "FAIL" not in out
    assert "grid (2, 3, 4): gpack = 12" in out


def test_verify_grids_lists_no_catalog(capsys, monkeypatch):
    # Orders and the packing bound come from the maximal pairs' distances, and
    # gpack settles from the greedy packing on them, so no cap stops a grid.
    # Each grid runs two pair passes: one for its orders, bound and
    # row-plus-column check, and one in gpack_value's settle.
    import geopack.formulas
    import geopack.geodesics
    import geopack.verify

    def listing(*args, **kwargs):
        raise AssertionError("a catalog was listed")

    monkeypatch.setattr(geopack.geodesics, "enumerate_maximal_geodesics", listing)
    monkeypatch.setattr(geopack.geodesics, "_list_geodesics", listing)
    monkeypatch.setattr(geopack.solvers, "_list_geodesics", listing)
    pair_passes = counted(
        monkeypatch, "_maximal_pairs", geopack.geodesics, geopack.formulas, geopack.solvers, geopack.verify
    )
    code, out = run(capsys, "verify", "grids", "--cap", "50")
    lines = out.splitlines()
    assert code == 0 and all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == f"# {len(lines) - 1}/{len(lines) - 1} passed"
    assert len(pair_passes) == 2 * len(geopack.verify._GRID_DIMS) == 32
    assert "PASS grid (30, 30): packing bound = 30" in lines
    assert "PASS grid (30, 30): first row and column meet every maximal geodesic, gt <= 59" in lines


def test_verify_trees_seeded(capsys):
    code, out = run(capsys, "verify", "trees", "--n", "30", "--count", "5", "--seed", "7")
    assert code == 0 and out.count("PASS") == 5


def test_verify_trees_budget_inconclusive(capsys):
    # Both engines reduce a tree to nothing at the root of each search, so a
    # one-node budget settles every tree; a capped catalog still stops it.
    code, out = run(capsys, "verify", "trees", "--n", "30", "--count", "2", "--node-budget", "1")
    assert code == 0
    assert out.splitlines() == [f"PASS tree {i} (n=30) packing equals transversal" for i in range(2)] + ["# 2/2 passed"]
    code, out = run(capsys, "verify", "trees", "--n", "30", "--count", "2", "--cap", "10")
    assert code == 3
    assert out.splitlines() == [
        f"INCONCLUSIVE tree {i} (n=30) packing equals transversal: maximal-geodesic catalog exceeded 10 entries"
        for i in range(2)
    ] + ["# 0/2 passed"]


@pytest.mark.parametrize(
    "suite, limit, stop",
    [
        ("formulas", ("--node-budget", "1"), "gt search stopped: search node budget exhausted"),
    ],
)
def test_verify_stop_marks_items_inconclusive(capsys, suite, limit, stop):
    # A stopped solve or catalog read is one inconclusive item; the other items still run.
    code, out = run(capsys, "verify", suite, *limit)
    lines = out.splitlines()
    assert code == 3 and "FAIL" not in out
    assert any(line.startswith("PASS ") for line in lines)
    assert any(line.startswith("INCONCLUSIVE ") and line.endswith(stop) for line in lines)


def test_verify_all_reports_every_suite_past_a_cap(capsys):
    code, out = run(capsys, "verify", "all", "--cap", "5", "--count", "2")
    labels = [line.split(" ", 1)[1] for line in out.splitlines()[:-1]]
    assert code == 3 and "FAIL" not in out
    assert any(label.startswith(("gpack(", "gt(", "rook ")) for label in labels)
    for suite in ("tree ", "reduction ", "grid "):
        assert any(label.startswith(suite) for label in labels)
    assert "maximal-geodesic catalog exceeded 5 entries" in out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_rejects_a_count_below_one(capsys, count):
    assert main(["verify", "trees", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: verify needs --count >= 1, got {count}\n"


@pytest.mark.parametrize(
    "suite, n", [("reduction", "0"), ("trees", "-3"), ("reduction", "1"), ("reduction", "2"), ("all", "2")]
)
def test_verify_rejects_an_n_below_one(capsys, suite, n):
    # Every suite needs n >= 1; a reduction input, drawn from 3..n, needs n >= 3.
    assert main(["verify", suite, "--n", n, "--count", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    want = f"verify needs --n >= 1, got {n}" if int(n) < 1 else f"verify {suite} needs --n >= 3, got {n}"
    assert captured.err == f"error: {want}\n"


@pytest.mark.parametrize("n", ["1", "2"])
def test_verify_trees_runs_below_three(capsys, n):
    code, out = run(capsys, "verify", "trees", "--n", n, "--count", "2")
    assert code == 0
    assert out.splitlines() == [f"PASS tree {i} (n={n}) packing equals transversal" for i in range(2)] + ["# 2/2 passed"]


def test_verify_suite_table_names_every_suite():
    from geopack import SUITE_NAMES
    from geopack.verify import _SUITES

    assert (*_SUITES, "all") == SUITE_NAMES


def test_verify_library_rejects_bad_input():
    from geopack.verify import random_connected_bipartite_max3, run_suite

    with pytest.raises(ValueError, match="^unknown suite 'nope'"):
        run_suite("nope")
    with pytest.raises(ValueError, match="^bipartite generator needs n >= 3$"):
        random_connected_bipartite_max3(2, random.Random(5))


def test_reduction_inputs_are_connected_bipartite_of_degree_at_most_three():
    import networkx as nx

    from geopack.verify import random_connected_bipartite_max3

    rng = random.Random(5)
    for n in range(3, 30):
        g = random_connected_bipartite_max3(n, rng)
        h = nx.Graph(g.edges())
        assert h.number_of_nodes() == n and nx.is_connected(h) and nx.is_bipartite(h)
        assert max(d for _, d in h.degree) <= 3


def test_verify_all_prints_the_suites_in_table_order(capsys):
    from geopack.verify import _SUITES

    flags = ("--n", "5", "--count", "3", "--seed", "4")
    items = []
    for suite in _SUITES:
        code, out = run(capsys, "verify", suite, *flags)
        assert code == 0
        items += out.splitlines()[:-1]
    code, out = run(capsys, "verify", "all", *flags)
    assert code == 0
    assert out.splitlines() == items + [f"# {len(items)}/{len(items)} passed"]


def test_verify_failure_wins_over_inconclusive(capsys, monkeypatch):
    import geopack.verify
    from geopack.verify import CheckResult

    def mixed(*args, **kwargs):
        return [CheckResult("a", False, "wrong"), CheckResult("b", None, "stopped")]

    monkeypatch.setattr(geopack.verify, "run_suite", mixed)
    code, out = run(capsys, "verify", "trees")
    assert code == 1
    assert out.splitlines() == ["FAIL a: wrong", "INCONCLUSIVE b: stopped", "# 0/2 passed"]


def test_verify_reduction_seeded(capsys):
    code, out = run(capsys, "verify", "reduction", "--n", "8", "--count", "5", "--seed", "7")
    assert code == 0 and out.count("PASS") == 5


def test_json_output_is_byte_deterministic(capsys):
    _, first = run(capsys, "compute", "--family", "rook:3", "--format", "json")
    _, second = run(capsys, "compute", "--family", "rook:3", "--format", "json")
    assert first == second
    _, first = run(capsys, "verify", "trees", "--n", "12", "--count", "3", "--seed", "1")
    _, second = run(capsys, "verify", "trees", "--n", "12", "--count", "3", "--seed", "1")
    assert first == second


def test_input_errors_exit_two(capsys):
    assert main(["compute", "--family", "nonsense:3"]) == 2
    assert main(["compute", "--file", "/no/such/file"]) == 2
    assert main(["compute", "--family", "complete:0"]) == 2
    assert main(["compute", "--family", "rook:3", "--time-budget", "nan"]) == 2
    assert main(["ratio", "rook", "--min", "3", "--max", "2"]) == 2
    assert main(["ratio", "rook", "--min", "3", "--max", "2", "--format", "json"]) == 2
    assert capsys.readouterr().out == ""


def test_budget_exit_three(capsys):
    assert main(["compute", "--family", "rook:4", "--invariant", "gt", "--node-budget", "3"]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: gt search stopped: search node budget exhausted"
        " (bounds: lower=5, upper=12)\n"
    )


def test_time_budget_exit_three(capsys):
    # The root greedy cover reads the clock at its first pick, so the stop
    # reports the bounds set before it: the greedy packing and n.
    assert main(["compute", "--family", "rook:5", "--invariant", "gt", "--time-budget", "1e-9"]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: gt search stopped: time budget exhausted"
        " (bounds: lower=7, upper=25)\n"
    )


def test_compute_cap_overflow_exit_three(capsys):
    # rook:3 has 36 maximal geodesics; no solve reads a capped prefix.
    assert main(["compute", "--family", "rook:3", "--cap", "10", "--invariant", "gt", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: maximal-geodesic catalog exceeded 10 entries (bounds: lower=0, upper=9)\n"


def test_cap_overflow_after_a_kept_catalog(capsys):
    # A default-cap report keeps rook:3's catalog; a smaller cap is another
    # key, so the capped enumeration still refuses.
    assert main(["compute", "--family", "rook:3", "--invariant", "gt", "--format", "json"]) == 0
    capsys.readouterr()
    assert main(["compute", "--family", "rook:3", "--cap", "10", "--invariant", "gt", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: maximal-geodesic catalog exceeded 10 entries (bounds: lower=0, upper=9)\n"


def test_gpack_budget_exit_three(capsys):
    # The greedy packing falls one short of n // 3 at the root, so the value
    # search (10 nodes) stops at its second node.
    assert main(["compute", "--family", "rook:5", "--invariant", "gpack", "--node-budget", "1"]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: gpack search stopped: search node budget exhausted"
        " (bounds: lower=7, upper=8)\n"
    )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "geopack", "compute", "--family", "complete:5", "--invariant", "gpack"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0 and "gpack = 2" in proc.stdout


def test_closed_stdout_exits_141_quietly():
    # The catalog JSON (134 KB) outgrows the pipe buffer, so a write always
    # meets the closed pipe: that is SIGPIPE's exit code, not an input error.
    proc = subprocess.Popen(
        [sys.executable, "-m", "geopack", "enumerate", "--family", "diagonal_grid:6,6", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert first == b"{\n" and err == b""
