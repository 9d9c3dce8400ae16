"""The package's layout: which modules import which, which private names
cross a module boundary, and that every module uses what it imports."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sig3"

# importer -> the package modules it imports from.  transfer reaches neither
# delta nor weierstrass: the half-period routes live in delta.
MODULE_IMPORTS = {
    "__init__": {"delta", "errors", "hypergeom", "moduli", "transfer", "weierstrass"},
    "__main__": {"cli"},
    "cli": {"delta", "errors", "hypergeom", "moduli", "transfer"},
    "delta": {"errors", "hypergeom", "moduli", "quadrature", "weierstrass"},
    "errors": set(),
    "hypergeom": {"errors"},
    "moduli": {"errors", "weierstrass"},
    "quadrature": {"errors"},
    "transfer": {"errors", "hypergeom", "moduli"},
    "weierstrass": {"errors", "hypergeom"},
}

# (importer, home, name): each private name has one home, and these are the
# only ones another module imports from it.  delta is the one module that
# reaches into another's private names.
CROSS_MODULE_PRIVATE = {
    ("delta", "weierstrass", "_cell"),
    ("delta", "weierstrass", "_centred"),
    ("delta", "weierstrass", "_inv_sn"),
    ("delta", "weierstrass", "_jacobi_half_periods"),
}


def _package_imports():
    """(importer, home, name) for every name a module imports from the
    package; ``import sig3.home`` and ``from . import home`` bind the module
    itself."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update((path.stem, alias.name.removeprefix("sig3."), alias.name)
                             for alias in node.names if alias.name.startswith("sig3."))
            elif isinstance(node, ast.ImportFrom) and (node.level == 1 or
                                                       (node.module or "").startswith("sig3")):
                home = (node.module or "").removeprefix("sig3").lstrip(".")
                found.update((path.stem, home or alias.name, alias.name) for alias in node.names)
    return found


def test_module_imports_are_pinned():
    graph = {path.stem: set() for path in PACKAGE.glob("*.py")}
    for importer, home, _ in _package_imports():
        graph[importer].add(home)
    assert graph == MODULE_IMPORTS


def test_private_names_crossing_modules_are_pinned():
    private = {entry for entry in _package_imports() if entry[2].startswith("_")}
    assert private == CROSS_MODULE_PRIVATE
    assert len(CROSS_MODULE_PRIVATE) == 4


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
