"""Every module-level import of the package and of its tests is used, and
every private name the package defines is read.

Two ``ast`` scans.  A name bound by a module-level import (outside any def or
class) must be referenced somewhere in the same module, in code or in an
annotation; the package ``__init__`` re-exports its imports and is exempt.
A private name (one leading underscore) defined at module level, or in the
body of a module-level class, must be read somewhere in the package: as a
name, an attribute or an imported name.

A third scan keeps one exact-sum kernel: ``quadrature._binned_sums`` has
one caller in the package, and ``quadrature`` catches ``OverflowError`` at
most once.

A fourth scan keeps one whole-grid array per 2D grid: no module of the
package calls the public ``Grid2DDensity`` constructor, which copies its
input, so every builder hands its fresh array over to be normalised in place.

A fifth scan keeps one loop over a 2D grid's conditional rows, the row
kernel: ``recentering`` calls no ``row_blocks``, and ``densities`` defines
no module-level ``_row_stats``.  A sixth keeps one rule for a weighted 2D
row sum, a BLAS row dot: neither ``Grid2DDensity.row_stats`` nor the row
kernel sums along an axis.  A seventh keeps one entry for the five
integrals D, I_plain, I_rel, h and TV and one home for the rule of which
reference each takes: in ``functionals`` only ``integrals`` dispatches on
the measured density's shape (``Density1D``, ``ProductDensity``,
``Grid2DDensity``; ``_named`` tests it only to name it), only it reads the
rule (``_references``) and only it raises a reference refusal, and ``bounds`` keeps
no table of its own (``_FUNCTIONALS``) and imports no private 2D pass.  An
eighth keeps the input rules in the library: ``cli`` tests no density's class and
compares no field of ``NumericPolicy`` and no ``tol``.  A ninth keeps the
density rules in the constructors: ``specio`` compares no value against a
number outside ``_count``.  A tenth keeps one intake for a claimed
convexity floor: only ``densities._claimed_eps`` calls ``_verify_eps``.  An
eleventh keeps one reader of the certificate memo: ``_Stats._memo`` is read
only in ``_Stats._get``.

A fresh interpreter also imports the package and its CLI without loading
``scipy.interpolate``, ``scipy.special`` or ``importlib.metadata``, which
together cost about half a second of every cold start.  ``scipy.special`` is
loaded where a normal score is first read: ``lsd distance --metric w2`` loads
it, ``--metric kl`` does not.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "lsdeficit").rglob("*.py"))
SOURCES = sorted(
    p
    for p in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    if p.name != "__init__.py"
)


def _module_imports(node: ast.AST):
    """Import statements outside every def and class body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _module_imports(child)


def _bound_names(stmt: ast.Import | ast.ImportFrom):
    if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
        return
    for alias in stmt.names:
        if alias.name != "*":
            yield alias.asname or alias.name.split(".")[0]


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        else:
            continue
        if ann is not None:
            yield ann


def _referenced(tree: ast.AST) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations name their types in a string
    for ann in _annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                try:
                    inner = ast.parse(const.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _referenced(tree)
    unused = sorted(
        name
        for stmt in _module_imports(tree)
        for name in _bound_names(stmt)
        if name not in used
    )
    assert unused == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _assigned(stmt: ast.stmt):
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        yield stmt.target.id


def _private_definitions(tree: ast.Module):
    """Private names bound at module level or in a module-level class body."""
    for stmt in tree.body:
        bodies = [[stmt]] + ([stmt.body] if isinstance(stmt, ast.ClassDef) else [])
        for node in (n for body in bodies for n in body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                names = _assigned(node)
            yield from filter(_private, names)


def _reads(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_name_is_read():
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = sorted(
        f"{path.name}:{name}"
        for path, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    )
    assert unread == []


def _callers(tree: ast.AST, name: str, owner: str = "") -> set[str]:
    """Dotted names of the innermost defs (``""`` for module level) that
    call ``name``, as a name or an attribute."""
    found = set()
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= _callers(child, name, f"{owner}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.add(owner)
        found |= _callers(child, name, owner)
    return found


def test_one_exact_sum_kernel():
    """Every exact sum goes through one binned pass, and past the float
    range that kernel reads inf instead of raising to a wrapper that catches
    ``OverflowError``."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    callers = sorted(f"{path}:{fn}" for path, tree in trees.items() for fn in _callers(tree, "_binned_sums"))
    assert len(callers) == 1, callers
    handlers = [
        h.lineno
        for h in ast.walk(trees["quadrature.py"])
        if isinstance(h, ast.ExceptHandler) and h.type is not None
        and "OverflowError" in {n.id for n in ast.walk(h.type) if isinstance(n, ast.Name)}
    ]
    assert len(handlers) <= 1, handlers


def test_builders_hand_their_grids_over():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    callers = sorted(f"{path}:{fn}" for path, tree in trees.items() for fn in _callers(tree, "Grid2DDensity"))
    assert callers == []


def test_one_conditional_row_loop():
    """Only the row kernel, ``transport.costs_to_standard_gaussian_rows``,
    iterates a grid's conditional rows: ``recentering`` calls no
    ``row_blocks``, and ``densities`` keeps no module-level ``_row_stats``
    beside the ``row_stats`` property."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    assert _callers(trees["recentering.py"], "row_blocks") == set()
    module_level = {node.name for node in trees["densities.py"].body if isinstance(node, ast.FunctionDef)}
    assert "_row_stats" not in module_level


def _definition(tree: ast.Module, dotted: str) -> ast.AST:
    """The def or class at ``dotted`` (``Class.method``) in a module."""
    node = tree
    for name in dotted.split("."):
        node = next(
            child for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name
        )
    return node


def _axis_sums(node: ast.AST) -> list[int]:
    """Lines of the calls under ``node`` that sum along an axis:
    ``x.sum(axis=...)``, ``x.sum(1)``, ``np.sum(x, axis=...)``, ``np.sum(x, 1)``."""
    lines = []
    for call in ast.walk(node):
        func = getattr(call, "func", None)
        if not (isinstance(func, ast.Attribute) and func.attr == "sum"):
            continue
        on_module = isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
        if any(k.arg == "axis" for k in call.keywords) or len(call.args) > on_module:
            lines.append(call.lineno)
    return lines


def test_weighted_row_sums_are_row_dots():
    """``Grid2DDensity.row_stats`` and the row kernel sum each weighted row
    with one BLAS row dot, ``block @ w``, as ``integrate_rows_2d`` does: no
    pairwise sum along an axis beside it."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    for module, dotted in (
        ("densities.py", "Grid2DDensity.row_stats"),
        ("transport.py", "costs_to_standard_gaussian_rows"),
    ):
        assert _axis_sums(_definition(trees[module], dotted)) == [], f"{module}:{dotted}"


_SHAPES = {"Density1D", "ProductDensity", "Grid2DDensity"}


def _shape_tests(tree: ast.AST, shapes: set[str] = _SHAPES, owner: str = "") -> set[tuple[str, str]]:
    """(innermost def, tested name) of every ``isinstance`` call against one
    of the density classes in ``shapes``."""
    found = set()
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= _shape_tests(child, shapes, f"{owner}.{child.name}".lstrip("."))
            continue
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "isinstance"
            and shapes & {n.id for n in ast.walk(child.args[1]) if isinstance(n, ast.Name)}
        ):
            found.add((owner, ast.unparse(child.args[0])))
        found |= _shape_tests(child, shapes, owner)
    return found


def test_one_entry_for_the_integrals():
    """Only ``functionals.integrals`` decides how a density's shape reaches
    the five integrals, and which reference each takes.  Elsewhere in
    ``functionals`` a density's class is tested only to name a shape
    (``_named``) or to read an admitted reference ``nu``; only
    ``integrals`` reads the reference rule (``_references``), and no other
    function raises ``ArgumentError`` but ``de_bruijn_residual``, which
    takes no reference.  ``bounds`` reads the integrals from that entry
    alone."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    functionals = trees["functionals.py"]
    tests = _shape_tests(functionals)
    assert {owner for owner, tested in tests if tested != "nu"} == {"integrals", "_named"}, sorted(tests)
    assert _callers(functionals, "_references") == {"integrals"}
    raisers = {
        owner
        for owner, node in _owned(functionals)
        if isinstance(node, ast.Raise)
        and "ArgumentError" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    }
    assert raisers == {"integrals", "de_bruijn_residual"}
    residual = _definition(functionals, "de_bruijn_residual")
    assert "nu" not in {a.arg for a in residual.args.args}
    bounds = trees["bounds.py"]
    assert "_FUNCTIONALS" not in {name for stmt in bounds.body for name in _assigned(stmt)}
    imported = {a.name for n in ast.walk(bounds) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "_grid2d_integrals" not in imported


def test_cli_leaves_input_rules_to_the_library():
    """``cli`` tests no density's class and compares no policy field or
    ``tol``: which pairs of shapes have an exact cost is decided by
    ``transport_cost``, and the flags are checked by ``NumericPolicy`` and
    ``check_tol``."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    classes = {node.name for node in trees["densities.py"].body if isinstance(node, ast.ClassDef)}
    assert _shape_tests(trees["cli.py"], classes) == set()
    policy = _definition(trees["config.py"], "NumericPolicy")
    fields = {node.target.id for node in policy.body if isinstance(node, ast.AnnAssign)} | {"tol"}
    compared = [
        ast.unparse(node)
        for node in ast.walk(trees["cli.py"])
        if isinstance(node, ast.Compare)
        and fields & {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    ]
    assert compared == []


def _owned(tree: ast.AST, owner: str = ""):
    """(innermost def, node) of every node under ``tree``, with ``""`` for
    module level and ``Class.method`` for a method."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _owned(child, f"{owner}.{child.name}".lstrip("."))
            continue
        yield owner, child
        yield from _owned(child, owner)


def test_specio_leaves_density_rules_to_the_constructors():
    """``specio`` checks JSON alone: outside ``_count`` it compares no value
    against a number, so every density rule (a positive variance, a
    positive floor, a product's factors) is its constructor's."""
    tree = ast.parse((ROOT / "src" / "lsdeficit" / "specio.py").read_text(encoding="utf-8"))
    compared = sorted(
        f"{owner}: {ast.unparse(node)}"
        for owner, node in _owned(tree)
        if isinstance(node, ast.Compare) and owner != "_count"
        and any(
            isinstance(c, ast.Constant) and type(c.value) in (int, float)
            for side in (node.left, *node.comparators) for c in ast.walk(side)
        )
    )
    assert compared == []


def test_one_intake_for_a_convexity_claim():
    """Only ``densities._claimed_eps`` calls a shape's ``_verify_eps``, so
    every constructor refuses and proves a claimed floor the same way."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    callers = sorted(f"{path}:{fn}" for path, tree in trees.items() for fn in _callers(tree, "_verify_eps"))
    assert callers == ["densities.py:_claimed_eps"]


def test_one_reader_of_the_certificate_memo():
    """``_Stats`` reads its memo only in ``_get``: every functional, cost,
    flow and sum a certificate reads goes through that one method."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    readers = sorted(
        f"{path}:{owner}"
        for path, tree in trees.items()
        for owner, node in _owned(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_memo" and isinstance(node.ctx, ast.Load)
    )
    assert set(readers) == {"bounds.py:_Stats._get"}, readers


def _fresh_stdout(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on this checkout's package."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cold_import_skips_scipy_interpolate():
    code = "import sys, lsdeficit, lsdeficit.cli; print('scipy.interpolate' in sys.modules)"
    assert _fresh_stdout(code) == "False"


def test_cold_start_loads_phi_only_for_a_normal_score(tmp_path):
    code = (
        "import sys, lsdeficit, lsdeficit.cli\n"
        "print([m for m in ('scipy.interpolate', 'scipy.special', 'importlib.metadata')"
        " if m in sys.modules])"
    )
    assert _fresh_stdout(code) == "[]"
    spec = tmp_path / "mixture.json"
    spec.write_text(
        '{"components": [{"mean": -1.2, "var": 0.6, "w": 0.4}, '
        '{"mean": 0.9, "var": 1.1, "w": 0.6}], "type": "mixture"}'
    )
    for metric, loaded in (("kl", False), ("w2", True)):
        code = (
            "import contextlib, io, sys\n"
            "from lsdeficit import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main(['distance', '--dist', {str(spec)!r}, '--metric', {metric!r}])\n"
            "print(code, 'scipy.special' in sys.modules)"
        )
        assert _fresh_stdout(code) == f"0 {loaded}", metric
