import ast
import functools
import hashlib
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tropdiv"

# sha256 of each demo's stdout; a change that keeps outputs byte-identical
# keeps these
DEMO_STDOUT_SHA256 = {
    "01_divisors_and_equivalence.py":
        "6e91024b17bec3cdad1f501ffdfbfd27e8a86f67bda439a0f55ff03f160d3247",
    "02_linear_systems_and_extremals.py":
        "6ee3121a1752c4dc10b7ca89393cdeb1b6913aceef2cbbe4faa5891d6f8a7939",
    "03_finite_generation.py":
        "44ec6e21b6a828dcd7a20785e1b64aafcc06301eaf564b3e3cc3e1bade095fa1",
    "04_unbounded_degrees.py":
        "9ccec2e1d5efa60940aef95c0882c206b5d93585fbba8a5cf958d07604640476",
    "05_metric_curves_witness.py":
        "431be065f6d04f001d16a68b47a383c5ea9503288e4cc47fe560387b064adb0f",
}


def test_demos_print_their_pinned_output():
    digests = {}
    for path in sorted((PACKAGE.parent.parent / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                              env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
        assert proc.returncode == 0, f"{path.name}: {proc.stderr.decode()}"
        digests[path.name] = hashlib.sha256(proc.stdout).hexdigest()
    assert digests == DEMO_STDOUT_SHA256


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
