"""Source layout rules that review would otherwise check by eye."""

import ast
from pathlib import Path

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
    # a BLAS or LAPACK kernel may block, reorder or fuse its sums, so its bits depend on the numpy build;
    # the library forms every sum elementwise or in Python floats instead
    banned = {"dot", "vdot", "matmul", "tensordot", "inner", "linalg"}
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


def test_all_lists_exactly_the_imported_names():
    # a name dropped from the imports but left in __all__ breaks `from sensedesign import *`
    tree = ast.parse((ROOT / "src" / "sensedesign" / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(sensedesign.__all__) == sorted(imported | {"__version__"})
    assert len(set(sensedesign.__all__)) == len(sensedesign.__all__)


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
