"""The package's layout: which modules import which, which private names
cross a module boundary, that every module uses what it imports, how many
lines of code it holds, which functions neither the CLI nor a certificate
enters, and that every name the benchmark in perfbench/ reaches exists."""

import ast
import importlib
import io
import sys
import tokenize
from pathlib import Path

import pytest

from oracles import clear_sig3_caches

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sig3"

# importer -> the package modules it imports from.  transfer reaches neither
# delta nor weierstrass, and weierstrass reaches only errors: the lattice of
# kappa and its half periods live in moduli.
MODULE_IMPORTS = {
    "__init__": {"delta", "errors", "hypergeom", "moduli", "transfer", "weierstrass"},
    "__main__": {"cli"},
    "cli": {"delta", "errors", "hypergeom", "moduli", "transfer"},
    "delta": {"errors", "hypergeom", "moduli", "quadrature", "weierstrass"},
    "errors": set(),
    "hypergeom": {"errors"},
    "moduli": {"errors", "hypergeom", "weierstrass"},
    "quadrature": {"errors"},
    "transfer": {"errors", "hypergeom", "moduli"},
    "weierstrass": {"errors"},
}

# (importer, home, name): each private name has one home, and these are the
# only ones another module imports from it: moduli builds the cell of
# kappa's lattice, and delta climbs its ladder and shares wp's bridge.
CROSS_MODULE_PRIVATE = {
    ("moduli", "weierstrass", "_cell"),
    ("delta", "weierstrass", "_inv_sn"),
    ("delta", "weierstrass", "_shifted"),
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
    assert len(CROSS_MODULE_PRIVATE) == 3


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


# Lines of src/sig3 that hold code: not blank, comment or docstring.  A
# change that moves the count edits this pin and says so in CHANGES.md.
CODE_LINES = 659

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _code_lines(source):
    """The numbers of the lines a token other than a comment or layout
    touches (a token spanning lines touches each), less the lines of every
    module, class and function docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return lines


def test_code_line_count_is_pinned():
    assert _code_lines('"""Doc."""\n\n# note\nx = """a\nb"""  # c\n') == {4, 5}
    counted = sum(len(_code_lines(path.read_text(encoding="utf-8"))) for path in PACKAGE.glob("*.py"))
    assert counted == CODE_LINES


# ---------------------------------- what the CLI and certificates reach ----

# The functions of src/sig3 that no CLI subcommand and no certificate
# enters: tests and perfbench are their only callers.  A change that
# shrinks the set edits this pin.  All but delta_integral, which the
# reference route's omega = G(pi/2) check will call, wait for the
# benchmark to stop reaching them.
UNREACHED = {
    "delta.delta_integral",
    "transfer.verify_identity56",
    "transfer.verify_identity57",
    "transfer.verify_identity58",
    "weierstrass.sn",
    "weierstrass.wp",
    "weierstrass.wp_and_derivative",
}

CLI_RUNS = (
    ["verify"],
    ["verify", "--grid", "0.001:0.999:0.001"],
    ["periods", "--kappa", "0.05:0.95:0.05"],
    ["periods", "--kappa", "0.6"],
    ["delta", "--kappa", "0.6", "--u", "0.3"],
    ["delta", "--kappa", "0.999999", "--samples", "17"],
    ["eval", "f2", "0.5"],
    ["eval", "f3", "0.5"],
    ["eval", "fhalf", "0.5"],
    ["eval", "f2", "1.5"],
    ["verify", "--grid", "0.9:0.1:0.1"],
)


def _defined_functions():
    """(module, first line, name) -> dotted name of every function defined
    in src/sig3.  The first line is the code object's ``co_firstlineno``:
    that of the first decorator, if any."""
    found = {}

    def walk(node, stem, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(stem, first, child.name)] = f"{prefix}{child.name}"
                walk(child, stem, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, stem, f"{prefix}{child.name}.")
            else:
                walk(child, stem, prefix)

    for path in PACKAGE.glob("*.py"):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, f"{path.stem}.")
    return found


def test_functions_neither_the_cli_nor_a_certificate_enters_are_pinned(capsys):
    # Qualified names come from the source, not from co_qualname, which is
    # Python 3.11+.  Class bodies run at import, before the trace starts,
    # so only functions are counted.
    import sig3.cli
    from sig3.delta import period_route_gap, verify_trimidiation
    from sig3.moduli import DeltaContext, ModulusSet

    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(str(PACKAGE)):
            entered.add((Path(code.co_filename).stem, code.co_firstlineno, code.co_name))

    # Earlier tests may have filled the caches.
    clear_sig3_caches()
    codes = []
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for argv in CLI_RUNS:
            codes.append(sig3.cli.main(argv))
        for kappa in (0.05, 0.6, 0.999999):
            ctx = DeltaContext(ModulusSet(kappa))
            period_route_gap(ctx)
            verify_trimidiation(ctx, [0.1 + 0.05j, 0.3 + 0.2j, 0.2 - 0.1j])
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    assert codes == [0] * 9 + [2, 2]
    defined = _defined_functions()
    # Every function entered is found in the source: lambdas and
    # comprehensions aside, a first line the walk got wrong would show here.
    assert {key for key in entered if not key[2].startswith("<")} <= defined.keys()
    assert {name for key, name in defined.items() if key not in entered} == UNREACHED


# ------------------------------------------- what the benchmark reaches ----

PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _perfbench_tree(name):
    if not PERFBENCH.is_dir():
        pytest.skip("no perfbench/ beside the package")
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _assigned(tree, target):
    """The literal value of the module-level assignment to ``target``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no assignment to {target}")


def _module_call(node):
    """The module name of a ``_module("name")`` call, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_module" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)):
        return node.args[0].value
    return None


def _traced_names():
    tree = _perfbench_tree("tracing.py")
    traced = {(module, fn) for module, fns in _assigned(tree, "TRACED").items() for fn in fns}
    sampled = {tuple(key.split(".")) for key in _assigned(tree, "SAMPLED")}
    return traced | sampled


def _workload_names():
    """(module, name) for every ``_module("m").name`` and every ``X.name``
    with X bound to ``_module("m")`` in the same function."""
    found = set()
    for func in ast.walk(_perfbench_tree("workloads.py")):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets, values = node.targets[0], node.value
                pairs = (zip(targets.elts, values.elts)
                         if isinstance(targets, ast.Tuple) and isinstance(values, ast.Tuple)
                         else [(targets, values)])
                bound.update((t.id, _module_call(v)) for t, v in pairs
                             if isinstance(t, ast.Name) and _module_call(v))
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute):
                home = _module_call(node.value)
                if home is None and isinstance(node.value, ast.Name):
                    home = bound.get(node.value.id)
                if home is not None:
                    found.add((home, node.attr))
    return found


def _first_op_names():
    """(module, name) for ``sig3.name`` (module "" is the package) and for
    ``m.name`` after ``from sig3 import m``."""
    tree = _perfbench_tree("first_op.py")
    homes = {"sig3": ""}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "sig3":
            homes.update((alias.asname or alias.name, alias.name) for alias in node.names)
    return {(homes[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in homes}


def test_every_name_the_benchmark_reaches_exists():
    # perfbench/ looks sig3's functions up by name at run time, so a name
    # deleted or renamed here would break its runs (``--trace 1`` first)
    # without failing any other test.  Read as source: importing workloads
    # would need mpmath.
    reached = {"tracing.py": _traced_names(), "workloads.py": _workload_names(),
               "first_op.py": _first_op_names()}
    assert all(len(names) >= 5 for names in reached.values()), reached
    missing = []
    for source, names in reached.items():
        for module, name in sorted(names):
            home = importlib.import_module("sig3." + module if module else "sig3")
            if not hasattr(home, name):
                missing.append(f"{source}: {home.__name__}.{name}")
    assert missing == []
