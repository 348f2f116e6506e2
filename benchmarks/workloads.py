"""The benchmark's workloads and the correctness gate each CLI invocation must pass.

A workload is the list of ``lindeberg`` CLI invocations that make up one
pass.  Each invocation declares the exact set of check keys its summary
must report, so a run that silently drops, renames or adds a check is
counted as failed.  ``full`` is the size the benchmark measures; ``tiny``
runs the same code paths in a few seconds for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

SIZES = ("full", "tiny")

# Defaults of the CLI at the commit that defined this benchmark; the
# check keys below are derived from them.
_SWAP_SPECS = ("iid-uniform", "multiset-rademacher", "markov-two-state")
_SWAP_FUNCTIONS = ("cos", "inv_quad", "logistic_step")
_SUMMARY_FUNCTIONS = ("cos-alternating", "inv_quad-ramp")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: subcommand, extra arguments and the checks it reports."""

    command: str
    args: tuple = ()
    checks: frozenset = frozenset()

    @property
    def stem(self) -> str:
        return self.command.replace("-", "_")

    def argv(self, seed: int, work_dir: Path, out_dir: Path) -> list:
        args = [a.format(work=work_dir) for a in self.args]
        return [self.command, *args, "--seed", str(seed), "--out", str(out_dir)]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    files: dict = field(default_factory=dict)  # written to the work dir first

    def write_files(self, work_dir: Path):
        work_dir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (work_dir / name).write_text(text)

    def args_hash(self, seed: int, size: str) -> str:
        """sha256 of everything that defines the workload's inputs."""
        doc = {"workload": self.name, "size": size, "seed": seed,
               "invocations": [[i.command, *i.args] for i in self.invocations],
               "files": self.files}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _identities(n_values) -> Invocation:
    keys = {"stein_polynomial"}
    for n in n_values:
        keys |= {f"conditional_mean_identity_n{n}", f"conditional_mean_square_n{n}",
                 f"martingale_increment_n{n}", f"moment_inequalities_n{n}",
                 f"covariance_gap_n{n}"}
    args = () if tuple(n_values) == (3, 4, 5, 6, 7) else ("--n", ",".join(map(str, n_values)))
    return Invocation("identities", args, frozenset(keys))


def _thm11(specs, n_values, functions, extra=()) -> Invocation:
    keys = {f"dominated_{s}_n{n}_{f}" for s in specs for n in n_values for f in functions}
    return Invocation("thm11-check", tuple(extra), frozenset(keys))


def _thm12(n_values, extra=()) -> Invocation:
    keys = {f"dominated_n{n}_{f}" for n in n_values for f in _SUMMARY_FUNCTIONS}
    return Invocation("thm12-check", tuple(extra), frozenset(keys))


def _mc_oracle(n: int, functions, extra=()) -> Workload:
    # Conditionally i.i.d. Gaussian-mean vector with unit marginal variance:
    # theta ~ N(0, 0.5^2), X_i | theta ~ N(theta, 0.75).  No exact A/B
    # oracle exists for it, so every function's cell runs the nested
    # Monte Carlo oracle over the same (spec, i) pairs.
    spec = {"variant": "conditionally_iid",
            "mixing": {"kind": "gaussian", "params": [0.0, 0.5]},
            "conditional": "gaussian_mean", "scale": 0.75 ** 0.5, "n": n}
    args = ("--spec-json", "{work}/mc_spec.json", *extra)
    if tuple(functions) != _SWAP_FUNCTIONS:
        args += ("--functions", ",".join(functions))
    inv = _thm11(("conditionally_iid",), (n,), functions, args)
    return Workload("mc-oracle", (inv,), {"mc_spec.json": json.dumps(spec, sort_keys=True)})


_RESOLVENT_CHECKS = frozenset({"finite_difference_order1", "finite_difference_order2",
                               "finite_difference_order3", "trace_bound_ratios"})


def _spectra(n_values, seeds: int, resolvent_args) -> Workload:
    # The Thm 1.3 layers: a few large eigensolves, then a short
    # resolvent-check, whose thousands of tiny extended-precision solves are
    # the opposite regime.  At its default --N 2..8 resolvent-check draws each
    # tuple's order from the seed, which moves its work by about 11%
    # (interquartile) from seed to seed; one order makes it seed-independent.
    sweep = ("--ensemble", "rademacher-perm", "--N", ",".join(map(str, n_values)),
             "--seeds", str(seeds))
    return Workload("spectra", (
        Invocation("wigner-sweep", sweep, frozenset({"all_cells_finite"})),
        Invocation("resolvent-check", tuple(resolvent_args), _RESOLVENT_CHECKS),
    ))

WORKLOADS = {
    "full": {
        "bounds": Workload("bounds", (
            _identities((3, 4, 5, 6, 7)),
            _thm11(_SWAP_SPECS, (5, 20, 50), _SWAP_FUNCTIONS),
            _thm12((10, 50)),
        )),
        "mc-oracle": _mc_oracle(2, _SWAP_FUNCTIONS),
        "spectra": _spectra((1000, 2000), 2, ("--N", "8", "--tuples", "10")),
    },
    "tiny": {
        "bounds": Workload("bounds", (
            _identities((3,)),
            _thm11(("iid-uniform",), (5,), ("cos",),
                   ("--n", "5", "--specs", "iid-uniform", "--functions", "cos",
                    "--replicates", "4000")),
            _thm12((10,), ("--n", "10", "--replicates", "4000")),
        )),
        "mc-oracle": _mc_oracle(1, ("cos",), ("--replicates", "4000")),
        "spectra": _spectra((20,), 2, ("--N", "3", "--tuples", "2", "--trials", "5")),
    },
}


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in summary JSON")


def gate(inv: Invocation, out_dir: Path, exit_code: int):
    """Reasons this invocation failed (empty when it passed) and its CSV digest."""
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    try:
        text = (out_dir / f"{inv.stem}_summary.json").read_text()
        summary = json.loads(text, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        reasons.append(f"summary: {exc}")
    else:
        if summary.get("all_passed") is not True:
            reasons.append("all_passed is not true")
        checks = summary.get("checks")
        keys = set(checks) if isinstance(checks, dict) else set()
        if keys != inv.checks:
            reasons.append(f"check keys differ: missing {sorted(inv.checks - keys)}, "
                           f"extra {sorted(keys - inv.checks)}")
    try:
        digest = hashlib.sha256((out_dir / f"{inv.stem}.csv").read_bytes()).hexdigest()
    except OSError as exc:
        reasons.append(f"csv: {exc}")
        digest = None
    return reasons, digest


def tally(passes) -> dict:
    """Attempted and failed invocations over a run's passes, with the reasons.

    ``passes`` lists, per pass, the (reasons, digests) that ``gate`` gave for
    each invocation.  An invocation whose CSV differs from the same
    invocation's in the first pass also fails.  Digests are only compared
    within one run, so an estimator changed on purpose in a later commit is
    not a failure.
    """
    first = passes[0][1]
    failures = []
    for reasons, digests in passes:
        for why, digest, ref in zip(reasons, digests, first):
            if digest is not None and ref is not None and digest != ref:
                why = why + ["csv differs from the first pass"]
            failures.append(why)
    return {"attempted": len(failures),
            "failed": sum(1 for why in failures if why),
            "reasons": sorted({w for why in failures for w in why})}
