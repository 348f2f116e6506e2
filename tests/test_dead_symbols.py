"""Every public top-level function and class of the package, and every public
method and property of its classes, has a caller.

A caller is a reference outside the symbol's own definition: in the package
itself (``__init__.py``'s re-exports do not count), in ``demos/``, or in the
acceptance suite.  A method counts as called when its name is looked up as
an attribute anywhere there, on whatever object.  A symbol that only unit
tests reach is dead weight; such a helper belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lindeberg"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _references(node) -> set:
    """Names that ``node`` reads: bare names, imported names, and attributes
    looked up on a package module (``suites.swapping_spec``)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in MODULES):
            found.add(sub.attr)
    return found


def _public_definitions(tree) -> dict:
    return {stmt.name: stmt for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")}


def _caller_trees() -> dict:
    callers = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    callers += sorted((ROOT / "demos").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    return {path: ast.parse(path.read_text(), str(path)) for path in callers}


def test_every_public_symbol_has_a_caller():
    trees = _caller_trees()
    referenced = set()
    definitions = {}
    for path, tree in trees.items():
        own = _public_definitions(tree) if path.parent == PACKAGE else {}
        definitions.update({name: path.name for name in own})
        for stmt in tree.body:
            # a definition's own body does not count as a caller of it
            name = getattr(stmt, "name", None)
            referenced |= _references(stmt) - ({name} if name in own else set())
    dead = sorted(f"{module}:{name}" for name, module in definitions.items()
                  if name not in referenced)
    assert not dead, f"public symbols with no caller outside unit tests: {dead}"


def test_every_public_method_has_a_caller():
    trees = _caller_trees()
    attributes = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
                  if isinstance(sub, ast.Attribute)}
    dead = sorted(f"{path.name}:{cls.name}.{stmt.name}"
                  for path, tree in trees.items() if path.parent == PACKAGE
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for stmt in cls.body if isinstance(stmt, ast.FunctionDef)
                  and not stmt.name.startswith("_") and stmt.name not in attributes)
    assert not dead, f"public methods with no caller outside unit tests: {dead}"
