import ast
import functools
import importlib
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tropdiv"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no proof step may rely on one
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_serialize_catches_document_shape_errors():
    # serialize.reading decides what a malformed document is, once; no other
    # module may catch the errors a document of the wrong shape raises
    shape_errors = {"AttributeError", "KeyError", "TypeError"}
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "serialize.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ExceptHandler) and node.type is not None
             and shape_errors & {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}]
    assert found == []


def test_readme_package_layout_names_resolve():
    # every backticked name in the README's module table must exist in one of
    # its row's modules, so the table cannot go on naming a removed function
    text = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    table = text.split("## Package layout", 1)[1].split("\n\n")[1]
    names, missing = 0, []
    for row in table.splitlines()[2:]:
        modules_cell, contents = row.strip("|").split("|")
        modules = [importlib.import_module(m) for m in re.findall(r"`([^`]+)`", modules_cell)]
        for name in re.findall(r"`([^`]+)`", contents):
            names += 1
            if not any(_resolves(module, name) for module in modules):
                missing.append(name)
    assert names >= 30
    assert missing == []


def _resolves(module, dotted):
    try:
        functools.reduce(getattr, dotted.split("."), module)
    except AttributeError:
        return False
    return True
