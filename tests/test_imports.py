from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "geopack"


def test_library_imports_only_the_standard_library():
    # The library stays pure standard library; test-only tools stay in tests/.
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert len(list(SRC.glob("*.py"))) > 1 and outside == []


def test_tree_oracle_imports_no_solver():
    # gpack_tree is the oracle the solvers are checked against, so it must not lean on them.
    tree = ast.parse((SRC / "trees.py").read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"graphs", "errors"}


def test_only_one_function_refuses_a_capped_catalog():
    # Every reader of the whole catalog goes through geodesics.complete_catalog.
    raisers = []
    for path in sorted(SRC.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(module) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(module):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(exc).split(".")[-1] == "EnumerationOverflow":
                owners = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                raisers.append((path.name, owners[-1] if owners else None))
    assert raisers == [("geodesics.py", "complete_catalog")]


def test_no_library_path_builds_all_pairs_distances():
    # Distance facts come from one BFS per query (geodesics._bfs); the n-BFS
    # table is for callers outside the library.
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "all_pairs_distances":
                calls.append((path.name, node.lineno))
    assert calls == []


def test_package_import_leaves_the_suites_unloaded():
    code = "import sys, geopack; print('geopack.verify' in sys.modules, geopack.verify_tree_equality.__module__)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "geopack.solvers"]


def test_cli_import_leaves_the_suites_unloaded():
    # compute, enumerate and tree never run a suite, so they do not load them.
    code = "import sys, geopack.cli; print('geopack.verify' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


@pytest.mark.parametrize("module", ["geopack", "geopack.cli"])
def test_import_loads_no_heavy_stdlib_modules(module):
    # Every CLI call pays for its imports: dataclasses pulls in inspect (and
    # ast, dis, tokenize), fractions pulls in decimal.  The records are
    # NamedTuples and the ratio code imports fractions when it runs.
    heavy = ("dataclasses", "inspect", "fractions", "decimal")
    code = f"import sys, {module}; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == []


def test_benchmark_imports_resolve():
    # perfbench imports these names by hand; renaming or moving one breaks
    # every benchmark run, so each must still resolve.
    missing = []
    scripts = sorted((ROOT / "perfbench").glob("*.py"))
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("geopack", "geopack.cli"):
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert scripts and missing == []
