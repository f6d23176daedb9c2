import ast
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
