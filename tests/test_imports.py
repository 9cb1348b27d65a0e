"""numpy loads only with the float optimizer and the sweeps.

The exact modules import neither numpy nor a numpy-backed module at module
level, ``import trilag`` and the exact commands start without numpy, and
the names the package exports resolve, on first use, to the objects of
their defining modules.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trilag

SRC = Path(trilag.__file__).resolve().parents[1]
NUMPY_FREE = ("certify", "polynomials", "graphs", "lagrangian", "fileio", "cli")
# the package's export list, by defining module
EXPORTS = {
    "graphs": ("OrientedGraph", "UndirectedGraph", "build_f", "build_cf", "build_bf", "underlying",
               "edge_density", "has_induced_directed_c4", "complete_graph"),
    "lagrangian": ("WeightVector", "lagrangian_cf", "lagrangian_bf", "uniform_weights", "merge_chain",
                   "pipeline_report"),
    "simplex": ("OptResult", "closed_form", "gradient", "maximize", "project_to_simplex"),
    "polynomials": ("Poly", "g_polynomial", "h_polynomial", "simplex_bernstein"),
    "certify": ("Certificate", "Leaf", "certify"),
    "harness": ("enumerate_orientations", "validate_fdf_family"),
    "fileio": ("ParseError", "parse_graph", "parse_weights"),
}


def _module_level_imports(source: str):
    """(module, names) of each import outside function bodies, relative modules
    with their leading dots; names are those a ``from`` import binds."""
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from ((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            if node.module is None:
                yield from ((dots + alias.name, ()) for alias in node.names)
            else:
                yield dots + node.module, tuple(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_numpy_free_modules_import_only_stdlib_and_each_other():
    """At module level the exact modules and the package import the standard
    library and one another only: no numpy, no simplex, no harness.  Of
    trilag, the certificate imports the polynomials alone."""
    imports = {name: {module for module, _ in _module_level_imports((SRC / "trilag" / f"{name}.py").read_text())}
               for name in ("__init__", *NUMPY_FREE)}
    for name, imported in imports.items():
        for module in imported:
            if module.startswith("."):
                assert module[1:] in NUMPY_FREE, (name, module)
            else:
                assert module.partition(".")[0] in sys.stdlib_module_names, (name, module)
    own = {module for module in imports["certify"] | imports["polynomials"] if module.startswith(".")}
    assert own == {".polynomials"}


def test_cli_imports_only_public_names_of_the_chain():
    """The CLI takes its lagrangian, reduce and pipeline payloads from the report
    builders of trilag.lagrangian, and none of the chain's private names."""
    imported = [names for module, names in _module_level_imports((SRC / "trilag" / "cli.py").read_text())
                if module == ".lagrangian"]
    assert imported and not [name for names in imported for name in names if name.startswith("_")]


def _run(code: str, cwd: Path) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_exact_commands_start_without_numpy(tmp_path):
    (tmp_path / "g.txt").write_text("digraph 3\n0 1\n2 1\n")
    (tmp_path / "w.txt").write_text("1/3\n1/3\n1/3\n")
    code = """
import contextlib, io, sys
import trilag
import trilag.cli
loaded = ['numpy' in sys.modules]
for argv in (["construct", "g.txt"], ["lagrangian", "g.txt", "w.txt"], ["reduce", "g.txt", "w.txt"],
             ["certify"], ["pipeline", "g.txt", "w.txt"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert trilag.cli.main(argv) == 0, argv
    loaded.append('numpy' in sys.modules)
print(loaded)
"""
    assert _run(code, tmp_path) == f"{[False] * 6}\n"


@pytest.mark.parametrize("argv", [["enumerate", "--n", "3"], ["validate-fdf", "--n", "4"],
                                  ["optimize", "--n", "2"]])
def test_array_commands_load_numpy(tmp_path, argv):
    code = f"""
import contextlib, io, sys
import trilag.cli
before = 'numpy' in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert trilag.cli.main({argv!r}) == 0
print(before, 'numpy' in sys.modules)
"""
    assert _run(code, tmp_path).split() == ["False", "True"]


def test_package_exports_resolve_to_their_modules():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"trilag.{module}")
        for name in names:
            assert getattr(trilag, name) is getattr(home, name), name
    for name in ("no_such_name", "trivariate_g", "majorization_bound_check",
                 "LagrangianValue", "MergeStep", "reduce_to_complete"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(trilag, name)
    for module in ("trilag.reduction", "trilag.pipeline"):  # folded into trilag.lagrangian
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
