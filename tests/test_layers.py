"""The package's modules import one another in one direction: padic ->
dynamics -> {criteria, odometer} -> sweep -> cli, with __init__ above
them all, and no function body imports a package module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padicdyn"

# a module imports only from modules of a lower layer
LAYERS = {"padic": 0, "dynamics": 1, "criteria": 2, "odometer": 2, "sweep": 3, "cli": 4,
          "__init__": 5}

# (function, module) of every import inside a function: what only some
# sweeps use, loaded where it is used
LOCAL_IMPORTS = {("run_sweep", "random"), ("_pool", "concurrent.futures")}


def _modules(node):
    """The modules an import statement names, a package module as
    padicdyn.<name>."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    if node.module is None:  # from . import x
        return [f"padicdyn.{alias.name}" for alias in node.names]
    return [f"padicdyn.{node.module}"]


def test_imports_follow_the_layers():
    upward, local = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in _modules(node):
                    if name.startswith("padicdyn."):
                        target = name.split(".")[1]
                        if LAYERS[target] >= LAYERS[path.stem]:
                            upward.append((path.stem, target))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local.update((node.name, name) for inner in ast.walk(node)
                             if isinstance(inner, (ast.Import, ast.ImportFrom))
                             for name in _modules(inner))
    assert sorted(LAYERS) == sorted(p.stem for p in PACKAGE.glob("*.py"))
    assert upward == []
    assert local == LOCAL_IMPORTS
