"""Configuration-driven experiment runner.

Subcommands reproduce the library's verification suites and emit plot-ready
CSV tables next to a JSON summary with one pass/fail entry per assertion.
Exit status: 0 when every assertion passes, 1 when any fails (the failing
checks are named on stderr), 2 for an unknown command, invalid input, a flag
or config key the command does not read, or a run that makes no checks.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import suites
from .sampling import (
    derive_child,
    rng_from,
    spec_from_dict,
    standardized_multiset,
)

# The names the commands call from modules that argument handling does not
# need, with the module that defines each.  A name is imported on its first
# lookup on this module (PEP 562 ``__getattr__``), so a run loads only the
# modules its subcommand calls.  The commands look the names up through
# ``_cli`` at call time, which also lets a caller rebind them on this module.
_LAZY = {
    "conditional_mean_identity_check": "exchangeable",
    "covariance_gap_sum": "exchangeable",
    "covariance_gap_sum_exact": "exchangeable",
    "end_to_end_check": "exchangeable",
    "harmonic_gap_closed_form": "exchangeable",
    "martingale_increment_check": "exchangeable",
    "prefix_walks": "exchangeable",
    "second_moment_identity_check": "exchangeable",
    "stein_exact_check": "exchangeable",
    "fd_agreement_check": "resolvent",
    "trace_bound_check": "resolvent",
    "ENSEMBLES": "spectral",
    "check_z": "spectral",
    "semicircle_cdf": "spectral",
    "semicircle_density": "spectral",
    "semicircle_stieltjes": "spectral",
    "thm13_experiment": "spectral",
    "swapping_report": "swap",
}
# The sorted keys of ``spectral.ENSEMBLES``: ``--ensemble``'s choices, written
# out so that building the parser does not import ``spectral``.
_ENSEMBLE_NAMES = ("contaminated", "gaussian", "rademacher-perm", "student-t-perm")

_cli = sys.modules[__name__]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


SCHEMA_VERSION = 1

# The config fields each command reads beyond ``seed`` and ``out``; a command
# takes a flag or config key only for a field listed here.
_READS = {
    "identities": ("n_list", "multiset"),
    "thm11-check": ("replicates", "n_list", "specs", "functions", "custom_spec"),
    "thm12-check": ("replicates", "n_list", "multiset"),
    "resolvent-check": ("N_list", "z_grid", "trials", "tuples"),
    "wigner-sweep": ("N_list", "ensemble", "seeds", "z_grid"),
    "semicircle-table": ("x_values", "z_grid"),
}


# Each config field in order: its type, as the errors name it and ``_has_type``
# reads it; its default, copied for each config (``command`` is always given);
# and the flag that sets it, with the argparse keywords besides its ``type``,
# which ``_arg_type`` takes from the field's type.  z_grid None means the
# command's default points.
_CONFIG_FIELDS = {
    "command": ("str", None, None, {}),
    "seed": ("int", 0, "--seed", {}),
    "out": ("str", ".", "--out", {"help": "output directory"}),
    "replicates": ("int | None", None, "--replicates", {}),
    "n_list": ("list[int]", [], "--n", {"help": "comma-separated vector lengths"}),
    "N_list": ("list[int]", [], "--N", {"help": "comma-separated matrix orders"}),
    "multiset": ("list[float]", [], "--multiset", {"help": "comma-separated multiset values"}),
    "ensemble": ("str", "rademacher-perm", "--ensemble", {"choices": _ENSEMBLE_NAMES}),
    "seeds": ("int", suites.SWEEP_SEEDS, "--seeds", {"help": "replicate seeds per sweep cell"}),
    "z_grid": ("list[str] | None", None, "--z",
               {"help": "comma-separated complex evaluation points"}),
    "x_values": ("list[float]", [], "--x", {"help": "comma-separated real evaluation points"}),
    "specs": ("list[str]", list(suites.SWAPPING_SPEC_KINDS), "--specs", {}),
    "functions": ("list[str]", list(suites.SUITE_FUNCTION_KINDS), "--functions", {}),
    "trials": ("int", suites.RESOLVENT_TRIALS, "--trials", {}),
    "tuples": ("int", suites.RESOLVENT_TUPLES, "--tuples", {}),
    "custom_spec": ("dict | None", None, "--spec-json",
                    {"help": "path to an exchangeable-spec JSON document"}),
}


class ExperimentConfig:
    """Round-trippable run configuration; flags override file values."""

    __slots__ = tuple(_CONFIG_FIELDS)

    def __init__(self, command: str, **values):
        unknown = sorted(set(values) - set(_CONFIG_FIELDS))
        if unknown:
            raise TypeError(f"ExperimentConfig() got unexpected argument(s) {unknown}")
        values["command"] = command
        for key, (_, default, *_) in _CONFIG_FIELDS.items():
            if key not in values:
                values[key] = list(default) if isinstance(default, list) else default
            setattr(self, key, values[key])

    def to_dict(self) -> dict:
        """``command``, ``seed``, ``out`` and the fields this command reads, as copies."""
        from copy import deepcopy  # here, as no command run needs it

        keys = ("command", "seed", "out", *_READS[self.command])
        return {k: deepcopy(getattr(self, k)) for k in _CONFIG_FIELDS if k in keys}

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        unknown = sorted(set(d) - set(_CONFIG_FIELDS))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        for key, (tp, *_) in _CONFIG_FIELDS.items():
            if key in d and not _has_type(d[key], tp):
                raise ValueError(f"config key {key!r} must be {tp}; got {d[key]!r}")
        command = d.get("command")
        if command not in _READS:
            raise ValueError(f"unknown command {command!r}")
        ignored = sorted(set(d) - {"command", "seed", "out", *_READS[command]})
        if ignored:
            raise ValueError(f"config key(s) {command} does not read: {', '.join(ignored)}")
        return ExperimentConfig(**d)


def _has_type(value, tp: str) -> bool:
    """Whether a JSON value fits a field type of ``_CONFIG_FIELDS``: ``a | b``,
    ``list[a]``, ``None``, ``float``, ``int``, ``str`` or ``dict``; bools are not
    numbers."""
    if " | " in tp:
        return any(_has_type(value, t) for t in tp.split(" | "))
    if tp.startswith("list["):
        return isinstance(value, list) and all(_has_type(v, tp[5:-1]) for v in value)
    if tp == "float":
        # finite, and an int only where it converts to a float: JSON ints are unbounded
        number = _has_type(value, "int") or isinstance(value, float)
        return number and abs(value) <= sys.float_info.max
    if tp == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, {"None": type(None), "str": str, "dict": dict}[tp])


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, rows):
    """One line per row after ``schema_version``; the first row's keys are the header."""
    assert rows, "a command with checks writes at least one row"
    header = ["schema_version", *rows[0]]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in
                             {"schema_version": SCHEMA_VERSION, **row}.items()})


# ---------------------------------------------------------------------------
# Command implementations; each returns (rows, checks, summary_extra)
# ---------------------------------------------------------------------------


def _n_list(cfg: ExperimentConfig, default, fixed=None,
            source="the explicit multiset length") -> list:
    """Vector lengths to run: ``fixed`` when an explicit input sets the length
    (a --n that disagrees is an error), else --n, else ``default``."""
    if fixed is not None:
        if cfg.n_list and [int(n) for n in cfg.n_list] != [fixed]:
            raise ValueError(f"--n disagrees with {source}")
        return [fixed]
    return [int(n) for n in (cfg.n_list or default)]


def _in_cell(flag: str, size: int, label: str, build, *args):
    """``build(*args)``; a ValueError it raises names the cell's size flag and its spec."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{flag} {size} ({label}): {exc}") from None


def _multiset_cells(cfg: ExperimentConfig, default):
    """Each cell as its ``_in_cell`` label and its spec: the explicit --multiset,
    whose length fixes n, or else the ramp at each n."""
    for n in _n_list(cfg, default, len(cfg.multiset) or None):
        if cfg.multiset:
            yield ("--n", n, "explicit multiset"), standardized_multiset(cfg.multiset)
        else:
            cell = ("--n", n, "ramp multiset")
            yield cell, _in_cell(*cell, suites.ramp_multiset, n)


def run_identities(cfg: ExperimentConfig):
    """exact enumeration checks for conditional moments, the covariance gap,
    and the Gaussian integration-by-parts identity"""
    identity_limit = suites.LIMITS["identity"]
    rows = []
    checks = {}
    for cell, spec in _multiset_cells(cfg, suites.IDENTITY_N_VALUES):
        n = spec.n
        worst_mean = worst_sq = worst_mart = 0.0
        slack = math.inf
        # refuses a multiset past the enumeration budget before any walk
        walks = _in_cell(*cell, _cli.prefix_walks, spec)
        for i, walk in enumerate(walks, start=1):
            dev_mean = _cli.conditional_mean_identity_check(walk)
            dev_mart = _cli.martingale_increment_check(walk)
            sm = _cli.second_moment_identity_check(walk)
            dev_sq = abs(sm.mean_square_lhs - sm.mean_square_rhs)
            slack_i = min(sm.variance_rhs - sm.variance_lhs,
                          sm.deviation_rhs - sm.deviation_lhs,
                          sm.third_moment_rhs - sm.third_moment_lhs)
            slack = min(slack, slack_i)
            worst_mean = max(worst_mean, dev_mean)
            worst_sq = max(worst_sq, dev_sq)
            worst_mart = max(worst_mart, dev_mart)
            rows.append({
                "check": "conditional_moments", "n": n, "i": i, "lhs": sm.mean_square_lhs,
                "rhs": sm.mean_square_rhs, "deviation": dev_mean, "slack": slack_i,
            })
        gap = _cli.covariance_gap_sum(n)
        closed = _cli.harmonic_gap_closed_form(n)
        gap_exact_dev = abs(float(_cli.covariance_gap_sum_exact(n) - closed))
        gap_limit = suites.LIMITS["covariance_gap_over_sqrt_n"] * math.sqrt(n)
        rows.append({
            "check": "covariance_gap", "n": n, "i": 0, "lhs": gap, "rhs": gap_limit,
            "deviation": gap_exact_dev, "slack": gap_limit - gap,
        })
        checks[f"conditional_mean_identity_n{n}"] = worst_mean <= identity_limit
        checks[f"conditional_mean_square_n{n}"] = worst_sq <= identity_limit
        checks[f"martingale_increment_n{n}"] = worst_mart <= identity_limit
        checks[f"moment_inequalities_n{n}"] = slack >= -identity_limit
        checks[f"covariance_gap_n{n}"] = (
            gap_exact_dev == 0.0 and gap <= gap_limit
            and abs(gap - float(closed)) <= suites.LIMITS["covariance_gap_closed_form"])
    covs = suites.stein_covariances(rng_from(derive_child(cfg.seed, 11)))
    worst_stein = max(_cli.stein_exact_check(cov) for cov in covs)
    stein_limit = suites.LIMITS["stein"]
    rows.append({
        "check": "stein_polynomial", "n": len(covs[0]),
        "i": 0, "lhs": worst_stein, "rhs": stein_limit, "deviation": worst_stein,
        "slack": stein_limit - worst_stein,
    })
    checks["stein_polynomial"] = worst_stein <= stein_limit
    return rows, checks, {}


def _report_row(report) -> dict:
    """A bound report's CSV columns: the bound, its terms in order, the estimate."""
    return {"bound": report.bound, **report.components, "estimate": report.estimate,
            "stderr": report.stderr, "replicates": report.replicates,
            "dominated": report.dominates(), "estimate_kind": report.kind}


def _swapping_group(spec, label, f_kinds, replicates, seeds):
    """Rows for every function of one (spec, n) pair, which share A, B and M3."""
    n = spec.n
    y_spec = suites.gaussian_comparison(n)
    functions = [suites.suite_function(f_kind, n) for f_kind in f_kinds]
    reports = _cli.swapping_report(functions, spec, y_spec, replicates, seeds)
    return [{"spec": label, "n": n, "function": f_kind, **_report_row(report)}
            for f_kind, report in zip(f_kinds, reports)]


def run_thm11(cfg: ExperimentConfig):
    """swapping-bound domination suite"""
    replicates = suites.SWAPPING_REPLICATES if cfg.replicates is None else cfg.replicates
    if cfg.custom_spec:
        spec = spec_from_dict(cfg.custom_spec)
        _n_list(cfg, (), spec.n, "the spec's n")
        cells = [(spec, cfg.custom_spec["variant"])]
    else:
        n_list = _n_list(cfg, suites.SWAPPING_N_VALUES)
        cells = ((_in_cell("--n", n, f"spec {kind}", suites.swapping_spec, kind, n), kind)
                 for kind in cfg.specs for n in n_list)
    rows = []
    for idx, (spec, label) in enumerate(cells):
        k0 = idx * len(cfg.functions)
        seeds = [derive_child(cfg.seed, k0 + k) for k in range(len(cfg.functions))]
        rows += _swapping_group(spec, label, cfg.functions, replicates, seeds)
    checks = {f"dominated_{r['spec']}_n{r['n']}_{r['function']}": bool(r["dominated"])
              for r in rows}
    return rows, checks, {}


def run_thm12(cfg: ExperimentConfig):
    """exchangeable summarization bound suite"""
    replicates = suites.SUMMARIZATION_REPLICATES if cfg.replicates is None else cfg.replicates
    rows = []
    checks = {}
    kinds = suites.SUMMARIZATION_FUNCTION_KINDS
    for idx, (_, spec) in enumerate(_multiset_cells(cfg, suites.SUMMARIZATION_N_VALUES)):
        n = spec.n
        functions = [suites.summarization_function(f_kind, n) for f_kind in kinds]
        # the functions of one n share one draw of X, seeded from the first's slot
        reports = _cli.end_to_end_check(spec, functions, replicates,
                                        derive_child(cfg.seed, idx * len(kinds)))
        for f_kind, report in zip(kinds, reports):
            row = {"n": n, "function": f_kind, **_report_row(report)}
            rows.append(row)
            checks[f"dominated_n{n}_{f_kind}"] = bool(row["dominated"])
    return rows, checks, {}


def run_resolvent_check(cfg: ExperimentConfig):
    """resolvent derivative formulas against finite differences plus trace bounds"""
    if cfg.z_grid is not None and len(cfg.z_grid) != 1:
        raise ValueError("resolvent-check takes exactly one --z value")
    z = suites.RESOLVENT_Z if cfg.z_grid is None else complex(cfg.z_grid[0])
    N_list = [int(N) for N in (cfg.N_list or suites.RESOLVENT_N_VALUES)]
    rng = rng_from(derive_child(cfg.seed, 23))
    agreement = _cli.fd_agreement_check(N_list, cfg.tuples, z, rng)
    rows = [{
        "N": N, "kind": "finite_difference",
        "order": order, "value": analytic, "reference": fd, "rel_error": rel,
    } for N, order, analytic, fd, rel in agreement.cases]
    worst_ratio = 0.0
    for t in range(cfg.trials):
        N = int(rng.choice(N_list))
        x = rng.uniform(-2.0, 2.0, N * (N + 1) // 2)
        ratios = _cli.trace_bound_check(x, N, z, rng)
        worst_ratio = max(worst_ratio, ratios.order1, ratios.order2, ratios.order3)
    rows.append({
        "N": 0, "kind": "trace_ratio",
        "order": 0, "value": worst_ratio, "reference": suites.LIMITS["trace_ratio"],
        "rel_error": 0.0,
    })
    fd_limit = suites.LIMITS["finite_difference"]
    checks = {
        "finite_difference_order1": agreement.order1 <= fd_limit,
        "finite_difference_order2": agreement.order2 <= fd_limit,
        "finite_difference_order3": agreement.order3 <= fd_limit,
        "trace_bound_ratios": worst_ratio <= suites.LIMITS["trace_ratio"],
    }
    return rows, checks, {}


def _sweep_cell(spec, z_grid, seed):
    row = _cli.thm13_experiment(spec, z_grid, seed)
    out = {
        "N": spec.N, "seed": seed,
        "ensemble": row.ensemble, "mu_hat": row.mu_hat,
        "sigma_hat": row.sigma_hat, "m4_tilde": row.m4_tilde, "ks": row.ks,
    }
    for k, gap in enumerate(row.stieltjes_gaps):
        out[f"re_gap_{k}"] = float(gap.real)
        out[f"im_gap_{k}"] = float(gap.imag)
    return out


def _median(values) -> float:
    """The median of a few floats, as ``np.median`` gives it, NaN included."""
    values = sorted(values)
    if any(math.isnan(v) for v in values):
        return math.nan
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def run_wigner_sweep(cfg: ExperimentConfig):
    """semicircle convergence sweep over matrix orders and seeds"""
    if cfg.ensemble not in _cli.ENSEMBLES:
        raise ValueError(f"unknown ensemble {cfg.ensemble!r}")
    N_list = [int(N) for N in (cfg.N_list or suites.SWEEP_N_VALUES)]
    z_grid = [_cli.check_z(z) for z in (suites.Z_GRID if cfg.z_grid is None else cfg.z_grid)]
    rows = []
    for N in N_list:
        cell = ("--N", N, f"ensemble {cfg.ensemble}")
        # The ensemble is deterministic, so one build serves every seed of the order.
        spec = _in_cell(*cell, _cli.ENSEMBLES[cfg.ensemble], N)
        rows += [_in_cell(*cell, _sweep_cell, spec, z_grid,
                          derive_child(cfg.seed, N * 100_003 + s)) for s in range(cfg.seeds)]
        del spec  # free this order's entries before the next, larger build
    medians = {N: _median([r["ks"] for r in rows if r["N"] == N]) for N in N_list}
    checks = {"all_cells_finite": all(math.isfinite(r["ks"]) for r in rows)}
    summary_extra = {"median_ks": {str(N): medians[N] for N in N_list},
                     "z_grid": [str(z) for z in z_grid]}
    return rows, checks, summary_extra


def _cdf_by_trapezoid(x: float) -> float:
    """The integral of the semicircle density from -2 to x, by the trapezoid
    rule with steps of at most 1e-5 (the density vanishes outside [-2, 2])."""
    end = min(max(x, -2.0), 2.0)
    grid = np.linspace(-2.0, end, math.ceil((end + 2.0) / 1e-5) + 1)
    return float(np.trapezoid(_cli.semicircle_density(grid), grid))


def _is_stieltjes_root(z: complex, m: complex) -> bool:
    """m solves m^2 + z m + 1 = 0 on the branch that maps the upper and lower
    half-planes to themselves, with |m| <= 1/|Im z|."""
    return (abs(m * m + z * m + 1.0) <= suites.LIMITS["stieltjes_root"] * (1.0 + abs(z)) ** 2
            and np.sign(m.imag) == np.sign(z.imag) and abs(m) <= 1.0 / abs(z.imag))


def run_semicircle_table(cfg: ExperimentConfig):
    """reference law values (density, cdf, transform)"""
    rows = []
    zs = cfg.z_grid if cfg.z_grid is not None else ([] if cfg.x_values else suites.Z_GRID)
    xs = cfg.x_values or ([] if cfg.z_grid else suites.SEMICIRCLE_X)
    cdf_ok, root_ok = [], []
    for x in xs:
        cdf = float(_cli.semicircle_cdf(x))
        rows.append({
            "kind": "x", "arg_re": float(x),
            "arg_im": 0.0, "density": float(_cli.semicircle_density(x)),
            "cdf": cdf, "m_re": "", "m_im": "",
        })
        cdf_ok.append(0.0 <= cdf <= 1.0 and abs(cdf - _cdf_by_trapezoid(float(x)))
                      <= suites.LIMITS["semicircle_cdf"])
    for z_text in zs:
        z = complex(z_text)
        m = _cli.semicircle_stieltjes(z)
        rows.append({
            "kind": "z", "arg_re": z.real,
            "arg_im": z.imag, "density": "", "cdf": "",
            "m_re": m.real, "m_im": m.imag,
        })
        root_ok.append(_is_stieltjes_root(z, m))
    # a check runs only over rows of its kind, so none passes on no rows
    checks = {name: all(ok) for name, ok in (("cdf_matches_density", cdf_ok),
                                               ("stieltjes_root", root_ok)) if ok}
    return rows, checks, {}


_COMMANDS = {
    "identities": run_identities,
    "thm11-check": run_thm11,
    "thm12-check": run_thm12,
    "resolvent-check": run_resolvent_check,
    "wigner-sweep": run_wigner_sweep,
    "semicircle-table": run_semicircle_table,
}


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _split(convert):
    """An argparse type: the comma-separated values of a flag, each through ``convert``."""
    def split(text: str):
        return [convert(v) for v in text.split(",") if v != ""]

    split.__name__ = f"_split_{convert.__name__}s"  # argparse's "invalid ... value" names it
    return split


def _arg_type(tp: str):
    """The argparse type of a field's flag: a list field's flag takes comma-separated
    values, and a ``dict`` field's flag names a file."""
    scalars = {"int": int, "float": float, "str": str}
    tp = tp.removesuffix(" | None")
    return _split(scalars[tp[5:-1]]) if tp.startswith("list[") else scalars.get(tp, str)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindeberg",
        description="Verification suites for swapping bounds, exchangeable "
                    "summarization, and semicircle-law experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in _COMMANDS.items():
        p = sub.add_parser(name, help=run.__doc__, description=run.__doc__)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key in ("seed", "out", *_READS[name]):
            tp, _, flag, kwargs = _CONFIG_FIELDS[key]
            p.add_argument(flag, dest=key, type=_arg_type(tp), **kwargs)
    return parser


# Flags whose value may begin with a minus sign: those of the list fields.
_VALUE_FLAGS = tuple(flag for tp, _, flag, _ in _CONFIG_FIELDS.values() if tp.startswith("list["))
_NEGATIVE_START = re.compile(r"^-\d|^-\.\d|^--?\d")


def _merge_negative_values(argv):
    """Join value flags with arguments that begin with a minus sign."""
    out = []
    skip = False
    for k, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _VALUE_FLAGS and k + 1 < len(argv) and _NEGATIVE_START.match(argv[k + 1]):
            out.append(f"{token}={argv[k + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(command=args.command)
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        data.setdefault("command", args.command)
        if data["command"] != args.command:
            raise ValueError("config file is for a different command")
        cfg = ExperimentConfig.from_dict(data)
    for key in ("seed", "out", *_READS[cfg.command]):
        value = getattr(args, key)
        if value is None:
            continue
        if value == []:
            raise ValueError(f"{_CONFIG_FIELDS[key][2]} needs at least one value")
        if key == "custom_spec":  # --spec-json names a file
            with open(value) as fh:
                value = json.load(fh)
        setattr(cfg, key, value)
    if cfg.custom_spec is not None:
        spec_from_dict(cfg.custom_spec)  # validate early, from a flag or a config file
    if not all(math.isfinite(x) for x in cfg.x_values):
        raise ValueError("--x values must be finite")
    for z in cfg.z_grid or ():
        try:
            complex(z)
        except ValueError:
            raise ValueError(f"--z values must be complex numbers; got {z!r}") from None
    if cfg.replicates is not None and cfg.replicates < 2:
        raise ValueError("--replicates must be at least 2 (a stderr needs two draws)")
    counts = {"--n": cfg.n_list, "--N": cfg.N_list, "--seeds": [cfg.seeds],
              "--trials": [cfg.trials], "--tuples": [cfg.tuples]}
    for flag, values in counts.items():
        if any(int(v) < 1 for v in values):
            raise ValueError(f"{flag} must be positive")
    return cfg


def _check_value(name: str, value) -> bool:
    """A check's pass/fail; anything but a bool (a NaN, say) is an error."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"check {name!r} is {value!r}, not a bool")
    return bool(value)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(_merge_negative_values(argv))
    try:
        cfg = build_config(args)
        rows, checks, summary_extra = _COMMANDS[cfg.command](cfg)
        if not checks:
            raise ValueError(f"{cfg.command} produced no checks")
        summary = {
            "command": cfg.command,
            "seed": cfg.seed,
            "checks": {k: _check_value(k, v) for k, v in sorted(checks.items())},
            "all_passed": all(checks.values()),
            "rows": len(rows),
            **summary_extra,
        }
        # a NaN or infinity raises ValueError here, before any file is written
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = cfg.command.replace("-", "_")
    _write_csv(out_dir / f"{stem}.csv", rows)
    with open(out_dir / f"{stem}_summary.json", "w") as fh:
        fh.write(text + "\n")
    print(text)
    if not summary["all_passed"]:
        failing = [k for k, v in checks.items() if not v]
        print("FAILED: " + ", ".join(sorted(failing)), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
