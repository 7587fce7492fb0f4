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


def absolute_imports(path: Path) -> list[str]:
    # The top-level package of every absolute import in one source file.
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append((node.module or "").split(".")[0])
    return names


def test_library_imports_only_the_standard_library():
    # The library stays pure standard library; test-only tools stay in tests/.
    outside = []
    for path in sorted(SRC.glob("*.py")):
        outside += [f"{path.name}: {name}" for name in absolute_imports(path) if name not in sys.stdlib_module_names]
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


def callers_of(*names: str) -> set[tuple[str, str | None]]:
    # (file, innermost enclosing function) of every call to one of ``names``.
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(module) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(module):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in names:
                owners = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                callers.add((path.name, owners[-1] if owners else None))
    return callers


def test_only_two_functions_number_sets_or_budget_a_search():
    # _solve turns every catalog into engine input; the induced-P3 packing is
    # the one solve whose sets are not a catalog.
    assert callers_of("_number_sets", "_Budget") == {("solvers.py", "_solve"), ("solvers.py", "induced_p3_packing_exact")}


def test_only_the_four_public_solves_call_solve():
    # One invariant per solve: a caller wanting both calls two public solves,
    # and they share a catalog only through solvers._kept.
    public = ("gpack_value", "gpack_report", "gt_value", "gt_report")
    assert callers_of("_solve") == {("solvers.py", name) for name in public}


def test_only_the_solvers_and_enumerate_list_a_catalog():
    # Every other reader takes its facts from the maximal pairs: lengths from
    # geodesics._length_classes, transversals from the greedy packing
    # (geodesics._greedy_packing), which is empty when it avoids one.
    assert callers_of("enumerate_maximal_geodesics", "_list_geodesics") == {
        ("cli.py", "cmd_enumerate"),
        ("geodesics.py", "enumerate_maximal_geodesics"),
        ("solvers.py", "_solve"),
    }


def test_one_search_walks_down_the_bfs_layers():
    # The catalog walk and the greedy packing search u's layers through
    # geodesics._paths_from, and nothing else does: a transversal check is a
    # greedy packing that avoids the set.
    assert callers_of("_paths_from") == {
        ("geodesics.py", "_list_geodesics"),
        ("geodesics.py", "_greedy_packing"),
    }


def test_the_greedy_packing_settles_gpack_and_checks_transversals():
    # geodesics._greedy_packing yields P and nothing more. The settle rule
    # that compares |P| with n // |P[0]| lives in solvers._solve alone; the
    # two other callers ask only whether the packing avoiding a set is empty.
    assert callers_of("_greedy_packing") == {
        ("solvers.py", "_solve"),
        ("formulas.py", "rook_complement_set"),
        ("verify.py", "_grids"),
    }


def test_no_library_path_builds_all_pairs_distances():
    # Distance facts come from the pair pass (geodesics._maximal_pairs, by one
    # BFS per source or by bitmask balls) or one BFS per query
    # (geodesics._bfs); the n-BFS table is for callers outside the library.
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "all_pairs_distances":
                calls.append((path.name, node.lineno))
    assert calls == []


def fresh_output(code: str) -> list[str]:
    # The words a new interpreter prints after running code with src/ on its path.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.split()


def test_only_the_cli_imports_json():
    # The JSON output format has one owner: cli.py builds every document it prints.
    importers = [path.name for path in sorted(SRC.glob("*.py")) if "json" in absolute_imports(path)]
    assert importers == ["cli.py"]


def test_package_import_leaves_json_unloaded():
    assert fresh_output("import sys, geopack; print('json' in sys.modules)") == ["False"]


def test_package_import_leaves_the_suites_unloaded():
    code = "import sys, geopack; print('geopack.verify' in sys.modules, geopack.verify_tree_equality.__module__)"
    assert fresh_output(code) == ["False", "geopack.solvers"]


def test_every_export_is_its_module_object():
    # Each name resolves on first use, in a fresh process, to the object its
    # module defines; __all__ is the 60 names of the table, sorted.
    code = (
        "import importlib, geopack\n"
        "for module, names in geopack._EXPORTS.items():\n"
        "    for name in names:\n"
        "        assert getattr(geopack, name) is getattr(importlib.import_module('geopack.' + module), name)\n"
        "print(len(geopack.__all__), geopack.__all__ == sorted(geopack._MODULE_OF))"
    )
    assert fresh_output(code) == ["60", "True"]


def test_every_submodule_resolves_as_an_attribute():
    import geopack

    modules = sorted(path.stem for path in SRC.glob("*.py") if path.stem not in ("__init__", "__main__"))
    assert sorted(geopack._EXPORTS) == modules
    code = f"import geopack; print(*[getattr(geopack, m).__name__ for m in {modules!r}])"
    assert fresh_output(code) == [f"geopack.{m}" for m in modules]


def test_dir_lists_every_export():
    import geopack

    assert set(geopack.__all__) | set(geopack._EXPORTS) <= set(dir(geopack))


def test_an_unknown_name_raises_attribute_error():
    import geopack

    with pytest.raises(AttributeError, match="'geopack' has no attribute 'no_such_name'"):
        geopack.no_such_name
    assert not hasattr(geopack, "__main__")


def test_star_import_binds_every_export():
    import geopack

    namespace: dict = {}
    exec("from geopack import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == geopack.__all__ and len(geopack.__all__) == 60


@pytest.mark.parametrize("module, loaded", [("geopack", ""), ("geopack.cli", "cli errors graphs")])
def test_import_loads_only_the_modules_it_needs(module, loaded):
    code = f"import sys, {module}; print(*sorted(m for m in sys.modules if m.startswith('geopack.')))"
    assert fresh_output(code) == [f"geopack.{m}" for m in loaded.split()]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["compute", "--family", "rook:3", "--format", "json"], "cli errors geodesics graphs solvers"),
        (["enumerate", "--family", "diagonal_grid:3,4", "--format", "json"], "cli errors geodesics graphs"),
        (["tree", "--family", "path:5", "--format", "json"], "cli errors graphs trees"),
        (["generate", "--family", "rook:3"], "cli errors graphs"),
        (["ratio", "complete", "--max", "3"], "cli errors geodesics graphs solvers"),
        (["ratio", "rook", "--max", "3"], "cli errors formulas geodesics graphs solvers"),
    ],
)
def test_a_cli_call_loads_only_the_modules_its_command_runs(argv, loaded):
    # Every module a call loads is compiled on each start without a bytecode
    # cache, so a command loads only what it runs; ratio loads the closed
    # forms only for the rook curve, and never the suites.
    code = (
        "import contextlib, io, sys, geopack.cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()): code = geopack.cli.main({argv!r})\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('geopack.')))"
    )
    assert fresh_output(code) == ["0", *(f"geopack.{m}" for m in loaded.split())]


def test_cli_import_leaves_the_suites_unloaded():
    # compute, enumerate and tree never run a suite, so they do not load them.
    code = "import sys, geopack.cli; print('geopack.verify' in sys.modules)"
    assert fresh_output(code) == ["False"]


@pytest.mark.parametrize("module", ["geopack", "geopack.cli"])
def test_import_loads_no_heavy_stdlib_modules(module):
    # Every CLI call pays for its imports: dataclasses pulls in inspect (and
    # ast, dis, tokenize), fractions pulls in decimal.  The records are
    # NamedTuples and the ratio code imports fractions when it runs.
    heavy = ("dataclasses", "inspect", "fractions", "decimal")
    code = f"import sys, {module}; print(*[m for m in {heavy!r} if m in sys.modules])"
    assert fresh_output(code) == []


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


def test_benchmark_selftest_catches_every_corruption(monkeypatch):
    # The benchmark's checks read witness.geodesics, p.vertices,
    # witness.vertices and the tree pairs; a record change that blinds them
    # fails here before it fails a benchmark run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    assert importlib.import_module("selftest").run() == []


def test_readme_quick_start_runs():
    # README's library example names public exports; a rename or deletion it
    # still names fails here, not in a reader's session.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "gp." in block
    exec(compile(block, "README.md", "exec"), {})
