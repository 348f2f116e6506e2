"""Every name that the benchmark's tracer wraps still exists in the package, and
the tracer still sees what it reports on A/B calls.

``benchmarks/tracing.py`` skips a target that the program no longer has, and
that layer's metrics then read 0.  The benchmark's own suite fails on a
missing target, but this suite does not run it, so the check is repeated
here.  The tracer is imported from ``benchmarks/`` without writing bytecode
there, and nothing under ``benchmarks/`` is changed.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from lindeberg import cli

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


def test_tracer_counts_capped_ab_calls(tracing, tmp_path):
    # 20 distinct values: enumeration is past its budget from i = 2 on, so 19 of
    # the 20 A/B calls return caps, which the tracer counts as not exact
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variant": "multiset", "values": list(range(1, 21))}))
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["thm11-check", "--spec-json", str(spec), "--replicates", "100",
                         "--out", str(tmp_path / "out")])
    assert code == 0 and not tracer.missing
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["swap.estimate_ab.calls"] == 20
    assert metrics["swap.ab_mc_frac"] == 19 / 20
