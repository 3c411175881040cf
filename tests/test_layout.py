"""Source layout rules that review would otherwise check by eye."""

import ast
import importlib
from pathlib import Path

import pytest

import sensedesign

MAX_LINE = 110
ROOT = Path(__file__).resolve().parent.parent


def test_no_line_longer_than_limit():
    files = sorted((ROOT / "src" / "sensedesign").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert files
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def test_no_assert_in_the_library():
    # python -O strips assert statements, so a contract checked by one silently stops holding
    files = sorted((ROOT / "src" / "sensedesign").glob("*.py"))
    assert files
    asserts = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_no_blas_product_in_the_library():
    # a BLAS or LAPACK kernel may block, reorder or fuse its sums, so its bits depend on the numpy build,
    # and einsum orders its sums by memory layout; the library forms every sum elementwise (core._sum) or
    # in Python floats instead
    banned = {"dot", "vdot", "matmul", "tensordot", "inner", "linalg", "einsum"}
    files = sorted((ROOT / "src" / "sensedesign").glob("*.py"))
    assert files
    found = []
    for path in files:
        where = path.relative_to(ROOT)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{where}:{node.lineno}: @")
            elif isinstance(node, ast.Call):
                func, names = node.func, []
                while isinstance(func, ast.Attribute):  # np.linalg.solve -> solve, linalg, np
                    names.append(func.attr)
                    func = func.value
                names.append(getattr(func, "id", ""))
                found += [f"{where}:{node.lineno}: {name}" for name in names if name in banned]
    assert found == []


def _package_imports():
    """Each name that ``sensedesign/__init__.py`` imports from a package module, mapped to that module.

    The names of ``sensedesign.simulate``, which the package resolves at first use, are imported under
    ``if TYPE_CHECKING:`` only.
    """
    tree = ast.parse((ROOT / "src" / "sensedesign" / "__init__.py").read_text(encoding="utf-8"))
    nodes = list(tree.body)
    nodes += [
        inner
        for node in tree.body
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
        for inner in node.body
    ]
    return {
        alias.asname or alias.name: f"sensedesign.{node.module}"
        for node in nodes
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_all_lists_exactly_the_imported_names():
    # a name dropped from the imports but left in __all__ breaks `from sensedesign import *`
    assert sorted(sensedesign.__all__) == sorted(set(_package_imports()) | {"__version__"})
    assert len(set(sensedesign.__all__)) == len(sensedesign.__all__)


def test_every_public_name_is_its_defining_modules_object():
    imports = _package_imports()
    assert len(imports) == 38
    for name, module in imports.items():
        assert getattr(sensedesign, name) is getattr(importlib.import_module(module), name), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from sensedesign import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(sensedesign.__all__)
    assert len(sensedesign.__all__) == 39
    assert set(sensedesign.__all__) <= set(dir(sensedesign))


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'sensedesign' has no attribute 'no_such_name'"):
        sensedesign.no_such_name  # noqa: B018


def test_every_private_module_name_is_used_in_the_library():
    # a helper left behind when its only caller goes is dead code that still reads as live
    files = sorted((ROOT / "src" / "sensedesign").glob("*.py"))
    assert files
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in files]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - used) == []
