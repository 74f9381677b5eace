"""Every imported name is used, and every module-level name of dbarkit.

A stdlib-only AST scan: a module's imports are the names its import
statements bind; a name counts as used when it appears as an
identifier anywhere in the module or in its `__all__`.  Package
`__init__.py` files (re-exports) and `from __future__` imports are
skipped.  Likewise each top-level def, class or assignment in
src/dbarkit must be referenced (as an identifier, an attribute or an
imported name) somewhere in src/, tests/ or perfbench/, or be listed
in its module's `__all__`.  And every class whose name ends in Error
derives from PreconditionError within the package, or is one of the
four classes in NAMED_ERRORS.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dbarkit").glob("*.py"))
FILES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
               if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported(tree))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def _exported(tree) -> set:
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)}


def _top_level_names(tree) -> dict:
    # name -> line of each top-level def, class or assignment target
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((n.id, node.lineno) for t in targets
                       for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def _references(tree) -> set:
    # identifiers read, attribute names and imported names
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def dead_names(modules: dict, others=()) -> list:
    """(module, line, name) of each top-level name of the modules
    ({name: source}) that no module and no other source references."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    used = set().union(*(_references(t) for t in trees.values()),
                       *(_references(ast.parse(src)) for src in others))
    return sorted((mod, line, name) for mod, tree in trees.items()
                  for name, line in _top_level_names(tree).items()
                  if name not in used and name not in _exported(tree)
                  and not (name.startswith("__") and name.endswith("__")))


def test_scan_flags_an_unused_import():
    src = "import os\nimport sys as system\nfrom math import pi, tau\nprint(tau, system)\n"
    assert unused_imports(src) == [(1, "os"), (3, "pi")]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from re import sub\n__all__ = ['sub']\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_a_dead_name():
    mod = ("__all__ = ['pub']\n_dead = 1\n_read = 2\n__version__ = '1'\n"
           "def pub(): return _read\ndef _helper(): pass\nclass _Cls: pass\n")
    assert dead_names({"m": mod}) == [("m", 2, "_dead"), ("m", 6, "_helper"),
                                      ("m", 7, "_Cls")]
    assert dead_names({"m": mod}, ["from m import _dead\nm._helper\n_Cls()\n"]) == []


def test_no_dead_module_names():
    others = [p.read_text() for p in [*(ROOT / "tests").glob("*.py"),
                                      *(ROOT / "perfbench").glob("*.py")]]
    assert dead_names({p.stem: p.read_text() for p in PACKAGE}, others) == []


# the classes the scan exempts: PreconditionError itself, ConfigError
# (exit 1), ExprParseError (a malformed expression, wrapped into
# ConfigError) and PoleError (exit 2 by name in cli.main; expr imports
# nothing of the package, so it cannot derive from the base)
NAMED_ERRORS = {"PreconditionError", "ConfigError", "ExprParseError",
                "PoleError"}


def stray_errors(sources) -> list:
    """Names of the *Error classes in the sources that neither are one
    of NAMED_ERRORS nor derive from PreconditionError through classes
    defined in the sources."""
    bases = {}
    for src in sources:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases
                                    if isinstance(b, ast.Name)]

    def derives(name):
        return name == "PreconditionError" or any(
            derives(b) for b in bases.get(name, ()))

    return sorted(name for name in bases if name.endswith("Error")
                  and name not in NAMED_ERRORS and not derives(name))


def test_scan_flags_a_stray_error_class():
    src = ("class PreconditionError(ValueError): pass\n"
           "class FitError(PreconditionError): pass\n"
           "class DeepError(FitError): pass\n"
           "class LostError(RuntimeError): pass\n"
           "class BadError(ValueError): pass\n")
    assert stray_errors([src]) == ["BadError", "LostError"]


def test_every_error_class_is_a_precondition_or_named():
    # without a catch-all in cli.main, a precondition class outside the
    # base would surface as a traceback instead of exit 2
    assert stray_errors([p.read_text() for p in PACKAGE]) == []
