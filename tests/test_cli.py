from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from geopack.cli import main

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
    calls = []
    enumerate_once = geopack.solvers.enumerate_maximal_geodesics

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_once(*args, **kwargs)

    monkeypatch.setattr(geopack.solvers, "enumerate_maximal_geodesics", counting)
    code, out = run(capsys, *argv, "--invariant", "both")
    assert code == 0 and len(calls) == 1
    assert out == json.dumps(single, indent=2) + "\n"


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


def test_verify_formulas_passes(capsys):
    code, out = run(capsys, "verify", "formulas")
    assert code == 0
    assert "FAIL" not in out


def test_verify_grids_passes(capsys):
    code, out = run(capsys, "verify", "grids")
    assert code == 0
    assert "FAIL" not in out
    assert "grid (2, 3, 4): gpack = 12" in out


def test_verify_trees_seeded(capsys):
    code, out = run(capsys, "verify", "trees", "--n", "30", "--count", "5", "--seed", "7")
    assert code == 0 and out.count("PASS") == 5


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
    assert main(["ratio", "rook", "--min", "3", "--max", "2"]) == 2
    assert main(["ratio", "rook", "--min", "3", "--max", "2", "--format", "json"]) == 2
    assert capsys.readouterr().out == ""


def test_budget_exit_three(capsys):
    assert main(["compute", "--family", "rook:4", "--invariant", "gt", "--node-budget", "3"]) == 3


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "geopack", "compute", "--family", "complete:5", "--invariant", "gpack"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and "gpack = 2" in proc.stdout
