"""Benchmark of the ``lindeberg`` CLI.

    python3 benchmarks/run.py --workload bounds --seed 1 --seconds 30 --trace 0

Run from anywhere; it works on the checkout this file sits in.  With
``--trace 0`` it measures the end-to-end metrics: closed-loop passes of the
workload's CLI invocations, one after another, each in a fresh interpreter,
for ``--seconds`` seconds, with timed fresh ``import lindeberg.cli``
start-ups before each pass.  With ``--trace 1`` it instead runs the workload in process,
alternating untraced and traced passes, and reports per-layer metrics (see
``tracing.py``).  Every invocation goes through the correctness gate in
``workloads.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with sample counts, quartiles, failure reasons and the environment
fingerprint, goes to ``.lindeberg-bench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from fingerprint import fingerprint
from workloads import SIZES, WORKLOADS, gate, tally

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".lindeberg-bench"

# BLAS threads for every child.  One thread keeps runs comparable on a small
# shared machine; the CLI itself runs at its default --threads 1.
BLAS_THREADS = 1
# Fresh-interpreter imports timed for setup_s before each pass, after one
# untimed warm-up.  Spreading them over the whole run, instead of timing them
# all at its start, lets their median see the same phases of a shared host's
# speed as the passes do.
SETUP_IMPORTS = {"full": 2, "tiny": 1}
SETUP_ARGV = [sys.executable, "-c", "import lindeberg.cli"]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LINDEBERG_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv, env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one child to completion: (wall seconds, cpu seconds, max RSS MB, exit code)."""
    start = perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6,
            proc.returncode)


def time_setup(env, count: int) -> list:
    samples = []
    for _ in range(count):
        wall, _, _, code = run_child(SETUP_ARGV, env)
        if code != 0:
            raise RuntimeError(f"import lindeberg.cli exited with {code}")
        samples.append(wall)
    return samples


def timed_pass(workload, seed: int, work_dir: Path, env) -> dict:
    """One closed-loop pass of the workload's CLI invocations."""
    workload.write_files(work_dir)
    wall = cpu = peak = 0.0
    reasons, digests = [], []
    for inv in workload.invocations:
        out_dir = work_dir / inv.stem
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        argv = [sys.executable, "-m", "lindeberg", *inv.argv(seed, work_dir, out_dir)]
        with open(out_dir / "stderr.txt", "wb") as err:
            w, c, rss, code = run_child(argv, env, stderr=err)
        wall, cpu, peak = wall + w, cpu + c, max(peak, rss)
        why, digest = gate(inv, out_dir, code)
        reasons.append(why)
        digests.append(digest)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak,
            "reasons": reasons, "digests": digests}


def _summary(values) -> dict:
    values = list(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "samples": len(values), "values": values}


def timed_run(workload, size: str, seed: int, seconds: float, work_dir: Path, env) -> dict:
    run_child(SETUP_ARGV, env)
    setup, passes = [], []
    start = perf_counter()
    while True:  # at least one round; no round that would end past ``seconds``
        began = perf_counter()
        setup += time_setup(env, SETUP_IMPORTS[size])
        passes.append(timed_pass(workload, seed, work_dir, env))
        now = perf_counter()
        if (now - start) + (now - began) > seconds:
            break
    counts = tally([(p["reasons"], p["digests"]) for p in passes])
    stats = {name: _summary(p[name] for p in passes)
             for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    stats["setup_s"] = _summary(setup)
    metrics = {name: s["median"] for name, s in stats.items()}
    metrics["ok_frac"] = 1.0 - counts["failed"] / counts["attempted"]
    return {**counts, "passes": len(passes), "stats": stats, "metrics": metrics}


def traced_run(workload, size: str, seed: int, seconds: float, work_dir: Path,
               spans_path: Path, env) -> dict:
    """The traced run, in a fresh interpreter (see ``tracing.py``)."""
    cfg = {"root": str(ROOT), "workload": workload.name, "size": size, "seed": seed,
           "seconds": seconds, "work_dir": str(work_dir), "spans_path": str(spans_path)}
    out = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "tracing.py"),
                          json.dumps(cfg)], env=env, cwd=ROOT, capture_output=True,
                         text=True)
    if out.returncode != 0:
        raise RuntimeError(f"traced run failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' runs the same code paths at small sizes, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "lindeberg" / "cli.py").is_file():
        print(f"error: no lindeberg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.size][args.workload]
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / "work" / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    env = child_env()
    if args.trace:
        result = traced_run(workload, args.size, args.seed, args.seconds, work_dir,
                            OUT / "spans" / f"{tag}.jsonl", env)
    else:
        result = timed_run(workload, args.size, args.seed, args.seconds, work_dir, env)
    result["environment"] = fingerprint(ROOT, env, BLAS_THREADS)
    result["workload_hash"] = workload.args_hash(args.seed, args.size)
    result["args"] = vars(args)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(result, indent=2, sort_keys=True))
    for reason in result["reasons"]:
        print(f"failed: {reason}", file=sys.stderr)

    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
