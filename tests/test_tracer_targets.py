"""Every name that the benchmark's tracer wraps still exists in the package.

``benchmarks/tracing.py`` skips a target that the program no longer has, and
that layer's metrics then read 0.  The benchmark's own suite fails on a
missing target, but this suite does not run it, so the check is repeated
here.  The tracer is imported from ``benchmarks/`` without writing bytecode
there, and nothing under ``benchmarks/`` is changed.
"""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def tracing():
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import tracing
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    return tracing


def test_every_tracer_target_resolves(tracing):
    missing = [target for target, _, _ in tracing.TARGETS if not tracing._resolve(target)]
    assert not missing, f"tracer targets missing from the package: {missing}"
