"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS, Invocation, gate, tally  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_declared_workloads_match_the_code():
    assert NAMES == list(WORKLOADS["full"]) == list(WORKLOADS["tiny"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert math.isfinite(emitted["value"])


@pytest.mark.parametrize("workload", NAMES)
def test_tracing_leaves_csv_bytes_unchanged(workload, tmp_path):
    from lindeberg import cli

    wl = WORKLOADS["tiny"][workload]
    plain = tracing.run_pass(cli.main, wl, 7, tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = tracing.run_pass(cli.main, wl, 7, tmp_path / "traced", tracer)
    assert plain.reasons == traced.reasons == [[]] * len(wl.invocations)
    assert None not in plain.digests
    assert traced.digests == plain.digests
    assert tracer.spans and not tracer.missing


def test_wrapped_names_are_the_originals_after_a_pass(tmp_path):
    from lindeberg import cli

    def snapshot():
        return [(owner, key, owner[key] if isinstance(owner, dict) else vars(owner).get(key))
                for target, _, _ in tracing.TARGETS
                for owner, key in tracing._resolve(target)]

    before = snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = snapshot()
        for wl in WORKLOADS["tiny"].values():
            tracing.run_pass(cli.main, wl, 7, tmp_path / wl.name, tracer)
    after = snapshot()
    assert len(before) >= len(tracing.TARGETS)
    assert all(b[2] is not d[2] for b, d in zip(before, during))
    assert all(b[2] is a[2] for b, a in zip(before, after))


def test_wrappers_are_removed_when_a_pass_raises():
    from lindeberg import swap

    original = swap.estimate_ab
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("pass failed")
    assert swap.estimate_ab is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _outputs(tmp_path, summary_text, csv_text="a,b\n1,2\n"):
    (tmp_path / "identities_summary.json").write_text(summary_text)
    (tmp_path / "identities.csv").write_text(csv_text)
    return tmp_path


@pytest.mark.parametrize("summary, code, expected", [
    ('{"all_passed": true, "checks": {"a": true}}', 0, []),
    ('{"all_passed": true, "checks": {"a": true}}', 1, ["exit code 1"]),
    ('{"all_passed": false, "checks": {"a": false}}', 1, ["exit code 1", "all_passed is not true"]),
    ('{"all_passed": true, "checks": {"a": true, "b": true}}', 0,
     ["check keys differ: missing [], extra ['b']"]),
    ('{"all_passed": true, "checks": {"a": true}, "x": NaN}', 0,
     ["summary: non-finite constant NaN in summary JSON"]),
    ('{"all_passed": true, "checks": {"a": true}, "x": -Infinity}', 0,
     ["summary: non-finite constant -Infinity in summary JSON"]),
])
def test_gate_rules(tmp_path, summary, code, expected):
    inv = Invocation("identities", (), frozenset({"a"}))
    reasons, digest = gate(inv, _outputs(tmp_path, summary), code)
    assert reasons == expected and digest is not None


def test_tally_fails_csv_that_differs_from_the_first_pass():
    counts = tally([([[], []], ["d1", "d2"]), ([[], []], ["d1", "other"]),
                    ([["exit code 1"], []], [None, "d2"])])
    assert counts == {"attempted": 6, "failed": 2,
                      "reasons": ["csv differs from the first pass", "exit code 1"]}


def test_targets_the_program_lacks_are_skipped_and_listed():
    from lindeberg import swap

    original = swap.estimate_ab
    targets = (("lindeberg.swap:estimate_ab", "swap.estimate_ab", None),
               ("lindeberg.swap:no_such_name", "swap.gone", None),
               ("lindeberg.no_such_module:f", "gone", None))
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        assert swap.estimate_ab is not original
    assert tracer.missing == ["lindeberg.swap:no_such_name", "lindeberg.no_such_module:f"]
    assert swap.estimate_ab is original
