"""Outside-in tracing of the ``lindeberg`` layers for the benchmark's traced run.

The program itself carries no tracing code.  Instead, for the length of one
in-process pass, ``Tracer.installed()`` replaces the names each module looks
up at call time (``lindeberg.swap.sample_batch``, the entries of
``lindeberg.spectral.ENSEMBLES``, ``RidgeFunction.__call__`` and so on) with
wrappers that record a span: name, start, end, parent span and run id.
Spans stay in memory; the benchmark writes them out once at the end.  The
originals are put back when the pass ends, even if it raises.

A layer's self time is the duration of its spans minus the time their child
spans cover.  Targets that a later version of the program no longer has are
skipped and listed in ``Tracer.missing``; their metrics then read 0.

Run as a script, this file performs the traced run of one workload in a
fresh interpreter and prints its result as one JSON line.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import shutil
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import WORKLOADS, Workload, gate, tally

ROOT = Path(__file__).resolve().parent.parent


def _rows(entry, args, kwargs, result):
    shape = np.shape(args[1] if len(args) > 1 else kwargs.get("x"))
    return shape[0] if len(shape) > 1 else 1


def _values_drawn(entry, args, kwargs, result):
    return int(getattr(result, "size", 0))


def _ab_call(entry, args, kwargs, result):
    spec = args[0] if args else kwargs.get("spec")
    i = args[3] if len(args) > 3 else kwargs.get("i")
    key = (spec, i)
    try:
        hash(key)
    except TypeError:
        key = (type(spec).__name__, repr(spec), i)
    return key, getattr(result, "exact", None)


def _ensemble_key(entry, args, kwargs, result):
    return entry, args[0] if args else kwargs.get("N")


def _eigen_gflop(entry, args, kwargs, result):
    # Computed, not measured: (4/3) N^3 flops for one dense symmetric solve.
    N = np.shape(args[0] if args else kwargs.get("matrix"))[0]
    return 4.0 / 3.0 * N ** 3 / 1e9


# (where the name is looked up, span name, what to record from the call).
# "module:Class.attr" wraps a class attribute; "module:NAME[*]" wraps every
# entry of a module-level dict.
TARGETS = (
    ("lindeberg.sampling:sample_batch", "sampling.sample_batch", _values_drawn),
    ("lindeberg.swap:sample_batch", "sampling.sample_batch", _values_drawn),
    ("lindeberg.exchangeable:sample_batch", "sampling.sample_batch", _values_drawn),
    ("lindeberg.suites:swapping_spec", "suites.spec_build", None),
    ("lindeberg.suites:gaussian_comparison", "suites.spec_build", None),
    ("lindeberg.suites:ramp_multiset", "suites.spec_build", None),
    ("lindeberg.suites:suite_function", "suites.spec_build", None),
    ("lindeberg.suites:summarization_function", "suites.spec_build", None),
    ("lindeberg.cli:spec_from_dict", "suites.spec_build", None),
    ("lindeberg.cli:standardized_multiset", "suites.spec_build", None),
    ("lindeberg.spectral:ENSEMBLES[*]", "spectral.ensemble_build", _ensemble_key),
    ("lindeberg.functions:RidgeFunction.__call__", "functions.ridge_eval", _rows),
    ("lindeberg.resolvent:finite_difference", "functions.finite_difference", None),
    ("lindeberg.swap:estimate_ab", "swap.estimate_ab", _ab_call),
    ("lindeberg.swap:third_moment_bound", "swap.third_moment_bound", None),
    ("lindeberg.swap:mean_difference", "swap.mean_difference", None),
    ("lindeberg.cli:swapping_report", "swap.swapping_report", None),
    ("lindeberg.cli:end_to_end_check", "exchangeable.end_to_end_check", None),
    ("lindeberg.cli:conditional_mean_identity_check", "exchangeable.identity_checks", None),
    ("lindeberg.cli:martingale_increment_check", "exchangeable.identity_checks", None),
    ("lindeberg.cli:second_moment_identity_check", "exchangeable.identity_checks", None),
    ("lindeberg.cli:covariance_gap_sum", "exchangeable.identity_checks", None),
    ("lindeberg.cli:covariance_gap_sum_exact", "exchangeable.identity_checks", None),
    ("lindeberg.cli:harmonic_gap_closed_form", "exchangeable.identity_checks", None),
    ("lindeberg.cli:stein_exact_check", "exchangeable.identity_checks", None),
    ("lindeberg.spectral:wigner_matrix", "spectral.wigner_matrix", None),
    ("lindeberg.resolvent:wigner_matrix", "spectral.wigner_matrix", None),
    ("lindeberg.spectral:eigenvalues", "spectral.eigenvalues", _eigen_gflop),
    ("lindeberg.spectral:ks_distance", "spectral.ks_distance", None),
    ("lindeberg.spectral:stieltjes_esd", "spectral.stieltjes_esd", None),
    ("lindeberg.cli:thm13_experiment", "spectral.thm13_experiment", None),
    ("lindeberg.resolvent:h_value_hp", "resolvent.h_value_hp", None),
    ("lindeberg.resolvent:ResolventWorkspace.__init__", "resolvent.workspace", None),
    ("lindeberg.resolvent:resolvent_partials", "resolvent.resolvent_partials", None),
    ("lindeberg.cli:trace_bound_check", "resolvent.trace_bound_check", None),
    ("lindeberg.cli:_COMMANDS[*]", "cli.command", None),
)

@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    run_id: int
    name: str
    start: float
    end: float
    info: object = None


def _resolve(target):
    """The (owner, key) slots a target names; empty when the program lacks it."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return []
    if path.endswith("[*]"):
        table = getattr(owner, path[:-3], None)
        return [(table, key) for key in table] if isinstance(table, dict) else []
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    return [(owner, attr)] if owner is not None and hasattr(owner, attr) else []


class Tracer:
    """Records spans around calls into the program; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._undo = []

    def span(self, name, fn, note=None, entry=None):
        """``fn`` wrapped so that each call records one span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
            info = note(entry, args, kwargs, result) if note else None
            self.spans.append(Span(sid, parent, self.run_id, name, start, end, info))
            return result

        return wrapper

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target for the duration of the block, then restore it."""
        self.missing = []
        try:
            for target, name, note in targets:
                slots = _resolve(target)
                if not slots:
                    self.missing.append(target)
                for owner, key in slots:
                    if isinstance(owner, dict):
                        original, own = owner[key], True
                        owner[key] = self.span(name, original, note, key)
                    else:
                        original, own = getattr(owner, key), key in vars(owner)
                        setattr(owner, key, self.span(name, original, note, key))
                    self._undo.append((owner, key, original, own))
            yield self
        finally:
            while self._undo:
                owner, key, original, own = self._undo.pop()
                if isinstance(owner, dict):
                    owner[key] = original
                elif own:
                    setattr(owner, key, original)
                else:
                    delattr(owner, key)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of the spans of one traced pass (no byte or overhead counts)."""
    by_id = {s.sid: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_s = defaultdict(float)
    calls = Counter()
    infos = defaultdict(list)
    for s in spans:
        self_s[s.name] += (s.end - s.start) - child_time[s.sid]
        calls[s.name] += 1
        if s.info is not None:
            infos[s.name].append(s.info)

    def parent_name(s):
        return by_id[s.parent].name if s.parent in by_id else None

    def frac(num, den):
        return num / den if den else 0.0

    ab = infos["swap.estimate_ab"]
    builds = infos["spectral.ensemble_build"]
    main_s = sum(s.end - s.start for s in spans if s.name == "cli.main")
    below_cli = sum(s.end - s.start for s in spans if not s.name.startswith("cli.")
                    and (parent_name(s) or "").startswith("cli."))
    m = {f"{name}.self_s": self_s[name] for name in {n for _, n, _ in TARGETS}}
    m.update({f"{name}.calls": float(calls[name]) for name in (
        "sampling.sample_batch", "spectral.ensemble_build", "swap.estimate_ab",
        "exchangeable.identity_checks", "spectral.eigenvalues", "resolvent.h_value_hp",
        "resolvent.workspace")})
    m.update({
        "sampling.values_drawn": float(sum(infos["sampling.sample_batch"])),
        "spectral.ensemble_build.distinct_frac": frac(len(set(builds)), len(builds)),
        "functions.ridge_eval.rows": float(sum(infos["functions.ridge_eval"])),
        "swap.ab_mc_frac": frac(sum(1 for _, exact in ab if exact is False), len(ab)),
        "swap.ab_distinct_frac": frac(len({key for key, _ in ab}), len(ab)),
        "swap.third_moment_bound.mc_calls": float(sum(
            1 for s in spans if s.name == "sampling.sample_batch"
            and parent_name(s) == "swap.third_moment_bound")),
        "spectral.eigenvalues.gflop": float(sum(infos["spectral.eigenvalues"])),
        "cli.io_s": self_s["cli.main"],
        "trace.covered_frac": frac(below_cli, main_s),
    })
    return m


@dataclass
class PassResult:
    seconds: float       # time inside cli.main, summed over the invocations
    reasons: list        # per invocation: why the gate failed it (empty: passed)
    digests: list        # per invocation: sha256 of its CSV
    bytes_written: int


def run_pass(main, workload: Workload, seed: int, work_dir: Path, tracer=None) -> PassResult:
    """One in-process pass: every invocation through ``main``, gated like a CLI run."""
    workload.write_files(work_dir)
    seconds, reasons, digests, nbytes = 0.0, [], [], 0
    for inv in workload.invocations:
        out_dir = work_dir / inv.stem
        shutil.rmtree(out_dir, ignore_errors=True)
        call = tracer.span("cli.main", main) if tracer else main
        start = perf_counter()
        with redirect_stdout(io.StringIO()):
            try:
                code = call(inv.argv(seed, work_dir, out_dir))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        seconds += perf_counter() - start
        why, digest = gate(inv, out_dir, code)
        reasons.append(why)
        digests.append(digest)
        if out_dir.is_dir():
            nbytes += sum(f.stat().st_size for f in out_dir.iterdir())
    return PassResult(seconds, reasons, digests, nbytes)


def traced_run(workload: Workload, seed: int, seconds: float, work_dir: Path,
               spans_path: Path) -> dict:
    """After a warm-up pass, alternate untraced and traced passes for ``seconds``.

    Returns the run's counts and the median of each per-layer metric that
    BENCHMARK.json declares over the traced passes, with their number.
    """
    from lindeberg import cli

    tracer = Tracer()
    start = perf_counter()
    # The first in-process pass pays one-off costs (lazy imports, first
    # allocations) that would read as negative tracing overhead; it is
    # gated but not timed.
    warmup = run_pass(cli.main, workload, seed, work_dir / "untraced")
    untraced, traced = [], []
    while True:  # at least one pair; no pair that would end past ``seconds``
        began = perf_counter()
        untraced.append(run_pass(cli.main, workload, seed, work_dir / "untraced"))
        tracer.run_id = len(traced)
        with tracer.installed():
            traced.append(run_pass(cli.main, workload, seed, work_dir / "traced", tracer))
        now = perf_counter()
        if (now - start) + (now - began) > seconds:
            break

    passes = [warmup] + [p for pair in zip(untraced, traced) for p in pair]

    per_pass = []
    for k, p in enumerate(traced):
        m = layer_metrics([s for s in tracer.spans if s.run_id == k])
        m["cli.bytes_written"] = float(p.bytes_written)
        per_pass.append(m)
    metrics = {
        "trace.overhead_frac": (statistics.median(p.seconds for p in traced)
                                / statistics.median(p.seconds for p in untraced) - 1.0),
        "trace.passes": float(len(traced)),
    }
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        if m["name"] not in metrics:
            metrics[m["name"]] = statistics.median(p[m["name"]] for p in per_pass)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.sid, s.parent, s.run_id, s.name, s.start, s.end]) + "\n")
    return {
        **tally([(p.reasons, p.digests) for p in passes]),
        "passes": len(traced),
        "missing_targets": tracer.missing,
        "spans": len(tracer.spans),
        "metrics": metrics,
    }


if __name__ == "__main__":
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(cfg["root"]) / "src"))
    result = traced_run(WORKLOADS[cfg["size"]][cfg["workload"]], cfg["seed"], cfg["seconds"],
                        Path(cfg["work_dir"]), Path(cfg["spans_path"]))
    print(json.dumps(result, sort_keys=True))
