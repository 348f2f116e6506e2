"""Every public top-level function and class of the package, and every public
method and property of its classes, has a caller.

A caller is a reference outside the symbol's own definition: in the package
itself (``__init__.py``'s re-exports do not count) or in the acceptance
suite.  A method counts as called when its name is looked up as an attribute
anywhere there, on whatever object.  A symbol that only demos or unit tests
reach is dead weight; such a helper belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lindeberg"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
# ``cli.py`` looks its lazily imported names up on ``_cli``, its own module.
MODULE_NAMES = MODULES | {"_cli"}


# Nodes that open a scope of their own names.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound(scope) -> set:
    """Names that a function or comprehension binds in its own scope: its
    arguments, and the targets of its assignments, loops and comprehension
    clauses.  Nested scopes keep their own."""
    names = set()
    if isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        todo = list(scope.generators)
    else:
        args = scope.args
        names.update(a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg] if a is not None)
        todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _references(node, local=frozenset()) -> set:
    """Names that ``node`` reads: bare names that no enclosing function binds,
    imported names, and attributes looked up on a package module
    (``suites.swapping_spec``, ``_cli.semicircle_density``).  ``local`` holds the names bound by the
    functions and comprehensions around ``node``."""
    if isinstance(node, _SCOPES):
        local = local | _bound(node)
    found = set()
    if isinstance(node, ast.Name):
        if node.id not in local:
            found.add(node.id)
    elif isinstance(node, ast.ImportFrom):
        found.update(alias.name for alias in node.names)
    elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
          and node.value.id in MODULE_NAMES):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= _references(child, local)
    return found


def _public_definitions(tree) -> dict:
    return {stmt.name: stmt for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")}


def _caller_trees() -> dict:
    callers = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
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
    assert not dead, f"public symbols with no caller outside demos and unit tests: {dead}"


def test_every_public_method_has_a_caller():
    trees = _caller_trees()
    attributes = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
                  if isinstance(sub, ast.Attribute)}
    dead = sorted(f"{path.name}:{cls.name}.{stmt.name}"
                  for path, tree in trees.items() if path.parent == PACKAGE
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for stmt in cls.body if isinstance(stmt, ast.FunctionDef)
                  and not stmt.name.startswith("_") and stmt.name not in attributes)
    assert not dead, f"public methods with no caller outside demos and unit tests: {dead}"


def test_a_local_of_a_public_name_is_not_a_caller():
    planted = ast.parse(
        "def helper():\n"
        "    return 1\n"
        "def shadows(items, *args, **kwargs):\n"
        "    helper = len(items)\n"
        "    for helper in items:\n"
        "        pass\n"
        "    squares = [helper * helper for helper in items]\n"
        "    return helper, squares\n"
        "def takes(helper):\n"
        "    return (lambda helper: helper)(helper)\n"
        "def calls():\n"
        "    def inner(helper):\n"
        "        return helper\n"
        "    return inner(helper())\n")
    helper, shadows, takes, calls = planted.body
    assert "helper" not in _references(shadows) | _references(takes)
    # a name bound only in a nested scope is still read from the module
    assert "helper" in _references(calls)
