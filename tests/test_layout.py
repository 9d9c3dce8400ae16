"""The package's layout: which private names cross a module boundary, and
that every module uses what it imports."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sig3"

# (importer, home, name): each private name has one home, and these are the
# only ones another module imports from it.
CROSS_MODULE_PRIVATE = {
    ("delta", "weierstrass", "_cell"),
    ("delta", "weierstrass", "_centred"),
    ("delta", "weierstrass", "_inv_sn"),
    ("transfer", "delta", "_sig3_half_periods"),
    ("transfer", "weierstrass", "_jacobi_half_periods"),
    ("cli", "delta", "_ode_residual"),
    ("cli", "delta", "_reference_delta"),
}


def _private_imports():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                home = node.module or ""
            elif node.module and node.module.startswith("sig3"):
                home = node.module.removeprefix("sig3").lstrip(".")
            else:
                continue
            found.update((path.stem, home, alias.name) for alias in node.names
                         if alias.name.startswith("_"))
    return found


def test_private_names_crossing_modules_are_pinned():
    assert _private_imports() == CROSS_MODULE_PRIVATE
    assert len(CROSS_MODULE_PRIVATE) == 7


def test_every_module_uses_what_it_imports():
    # A name bound by an import must be read somewhere in the module.
    # __init__ imports only to re-export, and __future__ binds nothing.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert unused == []
