"""The shipped package never imports test code.

The references in ``tests/oracles`` (loop kernels, the exact and
brute-force selection scans, the annealing baseline) exist to pin the
shipped kernels; ``src/`` must run without them.  This walks every
module under ``src/`` and fails on any import of the ``tests`` package
anywhere in the file: ``import``/``from`` statements and
``importlib.import_module``/``__import__`` calls with a literal name.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""
        elif isinstance(node, ast.Call) and getattr(
            node.func, "attr", getattr(node.func, "id", None)
        ) in ("import_module", "__import__"):
            if node.args and isinstance(node.args[0], ast.Constant):
                yield str(node.args[0].value)


def test_no_src_module_imports_tests():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50, "src/ layout moved"
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _imported_modules(tree):
            if name == "tests" or name.startswith("tests."):
                offenders.append(f"{path.relative_to(SRC)}: {name}")
    assert not offenders, offenders
