"""The package's import graph runs one way, down the layers.

Each module imports only from modules before it in LAYERS, at module top
level, so no import cycle can form and any module may use every layer
below it. The package facade, __init__, imports from all of them.
"""
import ast
from pathlib import Path

import opmeans

LAYERS = ("errors", "jsonio", "funcexpr", "hdensity", "spd", "means", "solvers",
          "monocheck", "orders", "cli", "__main__")


def _package_imports():
    """(module, imported module, imported names, whether at top level) of
    every import from inside the package, for each of its modules."""
    for path in sorted(Path(opmeans.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            names = [alias.name for alias in node.names]
            targets = [node.module] if node.module else names
            for target in targets:
                yield path.stem, target, names, node in tree.body


def test_every_module_has_a_layer():
    modules = {p.stem for p in Path(opmeans.__file__).parent.glob("*.py")}
    assert modules - {"__init__"} == set(LAYERS)


def test_every_package_import_is_top_level_and_points_down():
    found = []
    for module, target, _, top_level in _package_imports():
        if not top_level:
            found.append(f"{module} imports {target} inside a function or block")
        if module != "__init__" and LAYERS.index(target) >= LAYERS.index(module):
            found.append(f"{module} imports {target}, which is not below it")
    assert found == []


def test_no_module_imports_a_private_name_of_monocheck():
    found = [(module, name) for module, target, names, _ in _package_imports()
             if target == "monocheck" for name in names if name.startswith("_")]
    assert found == []
