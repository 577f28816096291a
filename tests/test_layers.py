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


def test_every_imported_name_is_used_in_its_module():
    # a re-export counts as a use: the facade names what it imports in
    # __all__, and a binding kept for others to patch says so by its noqa
    found = []
    for path in sorted(Path(opmeans.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(source), source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    found.append(f"{path.stem} imports {name} and never uses it")
    assert found == []
