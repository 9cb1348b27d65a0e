"""numpy loads only with the float optimizer and the sweeps.

The exact modules import neither numpy nor a numpy-backed module at module
level, and the exact commands start without numpy.  The package exports
no names: ``import trilag`` loads no submodule, ``import trilag.certify``
loads the certificate alone, and ``trilag.certify`` is always the module.
Every top-level function, class and constant of the package, and every
member of its classes, is used by its own code, so none is an entrance, a
value or a method that only the tests read; and each default of a
parameter is both passed and left in place by some call of the package,
so none is a parameter or a default that only the tests use.
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
NUMPY_FREE = ("certify", "graphs", "lagrangian", "fileio", "cli")


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
    library and one another only: no numpy, no simplex, no harness.  The
    certificate imports no trilag module, and of the standard library only
    __future__, fractions and math."""
    imports = {name: {module for module, _ in _module_level_imports((SRC / "trilag" / f"{name}.py").read_text())}
               for name in ("__init__", *NUMPY_FREE)}
    for name, imported in imports.items():
        for module in imported:
            if module.startswith("."):
                assert module[1:] in NUMPY_FREE, (name, module)
            else:
                assert module.partition(".")[0] in sys.stdlib_module_names, (name, module)
    assert imports["certify"] == {"__future__", "fractions", "math"}


def test_cli_imports_only_public_names_of_the_chain():
    """The CLI takes its lagrangian, reduce and pipeline payloads from the report
    builders of trilag.lagrangian, and none of the chain's private names."""
    imported = [names for module, names in _module_level_imports((SRC / "trilag" / "cli.py").read_text())
                if module == ".lagrangian"]
    assert imported and not [name for names in imported for name in names if name.startswith("_")]


def _python(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on args, src first on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def _run(code: str, cwd: Path) -> str:
    done = _python(cwd, "-c", code)
    done.check_returncode()
    return done.stdout


def test_module_entry_point_exits_with_mains_code(tmp_path):
    """``python -m trilag.cli`` runs main and exits with its code: 0 with the
    two-line certificate, and 1 with the error alone on undirected input."""
    (tmp_path / "path.txt").write_text("graph 3\n0 1\n1 2\n")
    (tmp_path / "w.txt").write_text("1/3\n1/3\n1/3\n")
    runs = [_python(tmp_path, "-m", "trilag.cli", *argv)
            for argv in (["--format", "text", "certify"], ["pipeline", "path.txt", "w.txt"])]
    assert [(done.returncode, done.stdout, done.stderr) for done in runs] == [
        (0, "result: CERTIFIED\ndegree: 8, coefficients: 165, least: 0 at (0, 0, 7, 1)\n", ""),
        (1, "", "error: path.txt:1: pipeline expects a digraph\n"),
    ]


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


def test_cli_start_up_loads_no_dataclasses_inspect_argparse_gettext_or_csv(tmp_path):
    """No module that ``import trilag.cli``, certify or pipeline loads defines a
    dataclass: dataclasses would bring inspect, ast, dis, tokenize and copy.
    The command table reads argv without argparse and its gettext, and only
    a csv report imports csv."""
    (tmp_path / "g.txt").write_text("digraph 3\n0 1\n2 1\n")
    (tmp_path / "w.txt").write_text("1/3\n1/3\n1/3\n")
    code = """
import contextlib, io, sys
def loaded():
    return sorted(name for name in ("dataclasses", "inspect", "argparse", "gettext", "csv") if name in sys.modules)
import trilag.cli
steps = [loaded()]
for argv in (["certify"], ["pipeline", "g.txt", "w.txt"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert trilag.cli.main(argv) == 0, argv
    steps.append(loaded())
print(steps)
"""
    assert _run(code, tmp_path) == "[[], [], []]\n"


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


# the names the package once exported or still resolved; each lives in its module only
OLD_EXPORTS = (
    "OrientedGraph", "UndirectedGraph", "build_f", "build_cf", "build_bf", "underlying", "edge_density",
    "has_induced_directed_c4", "complete_graph", "WeightVector", "lagrangian_cf", "lagrangian_bf",
    "uniform_weights", "merge_chain", "pipeline_report", "closed_form", "gradient", "maximize",
    "project_to_simplex", "Poly", "g_polynomial", "h_polynomial", "simplex_bernstein",
    "enumerate_orientations", "validate_fdf_family", "ParseError", "parse_graph", "parse_weights",
    "trivariate_g", "majorization_bound_check", "LagrangianValue", "MergeStep", "reduce_to_complete",
    "OptResult", "Certificate", "Leaf",
)


def test_package_exports_nothing_and_loads_only_what_is_imported(tmp_path):
    """The polynomial checker's trusted base is the certify module alone,
    and trilag.certify names the module whichever of its names comes first."""
    code = f"""
import sys
def loaded():
    return sorted(name for name in sys.modules if name.partition('.')[0] == 'trilag')
import trilag
steps = [loaded()]
for name in {(*OLD_EXPORTS, "certify")!r}:  # no module is an attribute before its import
    try:
        getattr(trilag, name)
    except AttributeError as exc:
        assert f"has no attribute '{{name}}'" in str(exc), exc
    else:
        raise AssertionError(name)
import trilag.certify
steps.append(loaded())
assert trilag.certify is sys.modules['trilag.certify']
print(steps)
"""
    assert _run(code, tmp_path) == "[['trilag'], ['trilag', 'trilag.certify']]\n"
    for first, then in (("from trilag.certify import certify", "import trilag.certify"),
                        ("import trilag.certify", "from trilag.certify import certify"),
                        ("import trilag.cli", "from trilag.certify import certify")):
        code = f"import sys\n{first}\n{then}\nimport trilag\nprint(trilag.certify is sys.modules['trilag.certify'])"
        assert _run(code, tmp_path) == "True\n", (first, then)
    for module in (*NUMPY_FREE, "simplex", "harness"):  # importing a module binds no name of it
        importlib.import_module(f"trilag.{module}")
    for name in (*OLD_EXPORTS, "no_such_name"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(trilag, name)
    # reduction and pipeline were folded into trilag.lagrangian, polynomials into trilag.certify
    for module in ("trilag.reduction", "trilag.pipeline", "trilag.polynomials"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


# the only special method a class of the package may define
SPECIAL_METHODS = ("__init__",)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned_names(stmt) -> list[str]:
    """The names an Assign or AnnAssign binds, dunders such as __version__ or
    __slots__ left out; none for any other statement."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return []
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and not _is_dunder(node.id)]


def _class_members(cls: ast.ClassDef):
    """(name, node) of each method, property and class constant of cls, node
    its statement, and of each attribute a method assigns on its first
    argument, ``self.<attr> = ...``, node that assignment's target."""
    for stmt in cls.body:
        yield from ((name, stmt) for name in _assigned_names(stmt))
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, stmt
            receiver = stmt.args.args[0].arg if stmt.args.args else None
            yield from ((node.attr, node) for node in ast.walk(stmt)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == receiver)


def _unreferenced_definitions(package: Path) -> list[str]:
    """module.name of each top-level def, class or constant of the package's
    modules that no code of the package refers to outside its own statement,
    and module.Class.member of each class member that no code of the package
    reads outside its own definition.

    A constant is a name a module-level assignment binds; dunders such as
    __version__ are exempt.  A reference is a Name, an Attribute or an
    import alias; docstrings and comments are not code, so they do not count.
    A member is a method, a property, a class constant or an attribute its
    methods set on self; it is read by an Attribute load of its name, such
    as ``g.arcs`` or ``self._numerators``.  Of the special methods only those
    in SPECIAL_METHODS may be defined, and __slots__ is exempt like any
    dunder constant.
    """
    defined, references, members, reads = [], set(), [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads.extend((node.attr, node) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            else:
                names = _assigned_names(stmt)
            if isinstance(stmt, ast.ClassDef):
                members.extend((f"{path.stem}.{stmt.name}", name, node) for name, node in _class_members(stmt))
            owner = frozenset((path.stem, name) for name in names)
            defined.extend(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rpartition(".")[2]
                else:
                    continue
                references.add((owner, name))
    unused = {f"{module}.{name}" for module, name in defined
              if not any(ref == name and (module, name) not in owner for owner, ref in references)}
    for cls, name, node in members:
        if _is_dunder(name):
            if name not in SPECIAL_METHODS:  # a dunder constant is never yielded
                unused.add(f"{cls}.{name}")
            continue
        inside = {id(child) for child in ast.walk(node)}
        if not any(attr == name and id(read) not in inside for attr, read in reads):
            unused.add(f"{cls}.{name}")
    return sorted(unused)


def test_every_definition_is_used_by_the_package():
    """A function, class, constant or class member that only the tests read
    leaves src: each command reaches the chain through the report builders,
    which the tests check against the raw-definition oracles of
    tests/helpers, D's Fraction vertices are the oracles' own, and the tests
    compare graphs and weights by their fields and read a ParseError's line
    from its message."""
    assert _unreferenced_definitions(SRC / "trilag") == []


# called with no argument by the console script and `python -m trilag.cli`, and with argv by in-process callers
PARAMETER_EXEMPT = ("cli.main",)


def _one_way_defaults(package: Path) -> list[str]:
    """module.function(parameter) of each defaulted parameter that the
    package's calls always pass, or never pass.

    Only functions outside class bodies that the package's code reaches by
    calling their bare name are weighed, and only when no such call spreads
    ``*args`` or ``**kwargs``: a function that is also read as a value, or
    read as an attribute, may be called in ways the scan cannot see, and
    so may a name that two functions share.  A parameter is passed by a call that gives it by position or by keyword.
    A function with no call at all is left to the scan of unused
    definitions.
    """
    functions, calls, opaque = [], {}, set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(stmt) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for stmt in cls.body}
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and id(node) not in methods:
                functions.append((path.stem, node))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                callees.add(id(node.func))
                if any(isinstance(arg, ast.Starred) for arg in node.args) or any(kw.arg is None for kw in node.keywords):
                    opaque.add(node.func.id)
                else:
                    calls.setdefault(node.func.id, []).append(node)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in callees:
                opaque.add(node.id)
            elif isinstance(node, ast.Attribute):
                opaque.add(node.attr)
    defined = [node.name for _, node in functions]
    one_way = []
    for module, node in functions:
        name = node.name
        if f"{module}.{name}" in PARAMETER_EXEMPT or name in opaque or defined.count(name) > 1:
            continue
        positional = node.args.posonlyargs + node.args.args
        defaulted = [(i, arg.arg) for i, arg in enumerate(positional) if i >= len(positional) - len(node.args.defaults)]
        defaulted += [(None, arg.arg) for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults) if default]
        for index, param in defaulted:
            passed = [(index is not None and index < len(call.args)) or any(kw.arg == param for kw in call.keywords)
                      for call in calls.get(name, ())]
            if passed and (all(passed) or not any(passed)):
                one_way.append(f"{module}.{name}({param})")
    return sorted(one_way)


def test_every_default_is_both_given_and_left_by_the_package():
    """A default that no package call leaves in place, or a parameter that no
    package call passes, serves only the tests: the parameter becomes
    required, or leaves with the code that only the tests reach."""
    assert _one_way_defaults(SRC / "trilag") == []


# the entrances that no command ran, deleted once the scan above found them
DELETED = (("lagrangian", "lagrangian_cf"), ("lagrangian", "lagrangian_bf"), ("lagrangian", "uniform_weights"),
           ("simplex", "closed_form"), ("simplex", "gradient"), ("graphs", "complete_graph"),
           ("lagrangian", "merge_chain"), ("certify", "h96_polynomial"), ("certify", "_power_form"),
           ("lagrangian", "_cf_numerator"))


@pytest.mark.parametrize("module,name", DELETED, ids=[name for _, name in DELETED])
def test_deleted_entrances_do_not_import(module, name):
    with pytest.raises(ImportError, match=f"cannot import name '{name}'"):
        exec(f"from trilag.{module} import {name}", {})
