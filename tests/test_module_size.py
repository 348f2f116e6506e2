"""Every package module that a run compiles after numpy has loaded stays at or
below 4,096 tokens, half the step at which the parser's token buffer doubles.

Without cached bytecode (``PYTHONDONTWRITEBYTECODE=1``, no ``__pycache__``)
each run compiles every module it imports.  Compiling takes memory in
proportion to the module's size (a 2.7 MB ``tracemalloc`` peak at 7,841
tokens, with a jump near 8,192 where the token buffer doubles), and once numpy
is loaded the largest such compile sets the run's peak resident memory.  A
module near that step then moves peak RSS by 0.2 to 0.5 MB with its size,
whatever its code does.  Tokens are counted as ``tokenize`` yields them,
comments and blank-line tokens excluded.

``cli.py`` is exempt: it is the first module a run compiles, before its body
imports numpy (``lindeberg/__init__.py`` imports nothing), when the process
is still small.  The last test checks that this still holds.
"""

import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lindeberg"
LIMIT = 4096
EXEMPT = {"cli.py"}


def _tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for token in tokenize.tokenize(fh.readline)
                   if token.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name not in EXEMPT),
                         ids=lambda p: p.name)
def test_module_stays_at_half_the_parser_step(path):
    assert _tokens(path) <= LIMIT


# Records, for each package module, whether numpy was loaded when the import
# system first looked for it, that is, before the module was compiled.
_LOAD_ORDER_SCRIPT = """
import importlib, importlib.abc, json, sys

numpy_loaded = {}

class Watch(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.startswith("lindeberg"):
            numpy_loaded.setdefault(name, "numpy" in sys.modules)
        return None

sys.meta_path.insert(0, Watch())
import lindeberg.cli
print(json.dumps(numpy_loaded))
"""


def test_cli_compiles_before_numpy_loads():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", _LOAD_ORDER_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    numpy_loaded = json.loads(result.stdout.splitlines()[-1])
    assert numpy_loaded["lindeberg.cli"] is False
    # every other module cli.py loads comes after numpy, so none is exempt
    assert {name for name, loaded in numpy_loaded.items() if not loaded} == {
        "lindeberg", "lindeberg.cli"}
