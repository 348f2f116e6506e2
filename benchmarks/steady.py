"""Steadiness report: do two sets of benchmark runs of the same code agree?

    python3 benchmarks/steady.py

Each of two sets runs ``run.py --trace 0`` once per seed 1..10 on every
workload in BENCHMARK.json, for its ``run_seconds``.  For each workload and
end-to-end metric the report prints each set's median and quartiles, the
spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), and whether it
stays within the metric's bound.  It then says whether the second set's
median is within the bound of the first set's, in either direction.  Exits 1
when any comparison fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its correctness gate")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    values = {}  # (set, workload) -> metric -> list of run values
    for s in range(SETS):
        for w in workloads:
            runs = [run_once(w, seed, bench["run_seconds"]) for seed in range(1, RUNS + 1)]
            values[s, w] = {m: [r[m] for r in runs] for m in runs[0]}
            print(f"set {s + 1} {w}: {RUNS} runs done", file=sys.stderr, flush=True)

    ok = True
    report = []
    print(f"{'workload':10} {'metric':12} set {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for s in range(SETS):
                vals = values[s, w][name]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q3 - q1) / med if med else float("inf")
                verdict = ["spread ok" if spread <= bound else "SPREAD TOO WIDE"]
                ok &= spread <= bound
                if first is None:
                    first = med
                else:
                    drift = worse_by(first, med, metric["better"])
                    verdict.append(f"vs set 1 {drift:+.3f} "
                                   + ("agrees" if abs(drift) <= bound else "DISAGREES"))
                    ok &= abs(drift) <= bound
                print(f"{w:10} {name:12} {s + 1:3} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                      f"{spread:7.4f} {bound:6.2f}  {'; '.join(verdict)}")
                report.append({"workload": w, "metric": name, "set": s + 1, "median": med,
                               "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                               "values": vals})
    out = ROOT / ".lindeberg-bench" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2))
    print("all agree" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
