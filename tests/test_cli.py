import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import spec_doc
from lindeberg import cli, exchangeable, suites
from lindeberg.specs import MultisetPermutation


def run_cli(args):
    return cli.main(args)


def read_summary(out_dir: Path, command: str) -> dict:
    stem = command.replace("-", "_")
    with open(out_dir / f"{stem}_summary.json") as fh:
        return json.load(fh)


def read_rows(out_dir: Path, command: str):
    stem = command.replace("-", "_")
    with open(out_dir / f"{stem}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_thm11_single_uniform_coordinate_is_exact(tmp_path):
    # n = 1 rows were Monte Carlo with a 2-draw stderr, and this seed failed domination
    code = run_cli(["thm11-check", "--n", "1,3", "--specs", "iid-uniform,iid-uniform",
                    "--replicates", "2", "--seed", "10166366", "--out", str(tmp_path)])
    assert code == 0
    assert {row["estimate_kind"] for row in read_rows(tmp_path, "thm11-check")} == {"exact"}


def test_identities_with_explicit_multiset(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["identities", "--n", "5", "--multiset", "-2,-1,0,1,2",
                    "--out", str(out)])
    assert code == 0
    summary = read_summary(out, "identities")
    assert summary["all_passed"]
    assert any(k.startswith("covariance_gap") for k in summary["checks"])
    rows = read_rows(out, "identities")
    assert rows[0]["schema_version"] == "1"


def test_semicircle_table_density_row(tmp_path):
    out = tmp_path / "t"
    assert run_cli(["semicircle-table", "--x", "0", "--out", str(out)]) == 0
    rows = read_rows(out, "semicircle-table")
    assert len(rows) == 1
    assert float(rows[0]["density"]) == pytest.approx(0.3183098861837907)


def test_semicircle_table_transform_rows(tmp_path):
    out = tmp_path / "t"
    assert run_cli(["semicircle-table", "--z", "1j,2j", "--out", str(out)]) == 0
    rows = read_rows(out, "semicircle-table")
    assert [r["kind"] for r in rows] == ["z", "z"]
    assert float(rows[0]["m_im"]) == pytest.approx(0.6180339887498949)


def test_semicircle_table_writes_x_and_z_rows_when_both_are_given(tmp_path):
    out = tmp_path / "t"
    assert run_cli(["semicircle-table", "--x", "0", "--z", "1j,2j", "--out", str(out)]) == 0
    rows = read_rows(out, "semicircle-table")
    assert [r["kind"] for r in rows] == ["x", "z", "z"]
    assert float(rows[0]["density"]) == pytest.approx(0.3183098861837907)
    assert float(rows[1]["m_im"]) == pytest.approx(0.6180339887498949)
    assert read_summary(out, "semicircle-table")["checks"] == {
        "cdf_matches_density": True, "stieltjes_root": True}


def test_semicircle_table_resolves_the_root_at_large_z(tmp_path):
    # m(iy) = i (sqrt(y^2 + 4) - y) / 2, about i / y; written as (-z + z s) / 2 it cancels
    assert run_cli(["semicircle-table", "--z", "1e8j,1e9j,1e12j", "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path, "semicircle-table")
    assert [float(r["m_im"]) for r in rows] == pytest.approx([1e-8, 1e-9, 1e-12], rel=1e-15)


def test_default_semicircle_table_writes_x_and_z_rows(tmp_path):
    assert run_cli(["semicircle-table", "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path, "semicircle-table")
    assert [(r["kind"], float(r["arg_re"]), float(r["arg_im"])) for r in rows] == [
        *(("x", x, 0.0) for x in (-2.0, -1.0, 0.0, 0.5, 2.0)),
        ("z", 0.0, 1.0), ("z", 0.0, 2.0), ("z", 1.0, 1.0)]
    assert read_summary(tmp_path, "semicircle-table")["checks"] == {
        "cdf_matches_density": True, "stieltjes_root": True}


def _wrong_cdf(x):
    # 4.1 pi where the cdf divides by 4 pi
    return 0.5 + (x * np.sqrt(4.0 - x * x) + 4.0 * np.arcsin(x / 2.0)) / (4.1 * math.pi)


@pytest.mark.parametrize("name, wrong, flags, check", [
    ("semicircle_cdf", _wrong_cdf, ["--x", "-2,-1,0,0.5,2"], "cdf_matches_density"),
    ("semicircle_cdf", _wrong_cdf, [], "cdf_matches_density"),
    # the root of m^2 + z m + 1 = 0 that grows at infinity
    ("semicircle_stieltjes", lambda z: (-z - z * np.sqrt(1.0 - 4.0 / (z * z))) / 2.0,
     ["--z", "1j,2j,1+1j"], "stieltjes_root"),
], ids=["cdf", "cdf-at-defaults", "stieltjes"])
def test_semicircle_table_checks_catch_a_wrong_law(tmp_path, monkeypatch, capsys, name, wrong,
                                                   flags, check):
    monkeypatch.setattr(cli, name, wrong)
    assert run_cli(["semicircle-table", *flags, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip() == f"FAILED: {check}"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_resolvent_check_rejects_more_than_one_z(tmp_path, capsys, source):
    if source == "flag":
        args = ["resolvent-check", "--z", "1j,5+5j"]
    else:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"command": "resolvent-check", "z_grid": ["1j", "5+5j"]}))
        args = ["resolvent-check", "--config", str(path)]
    assert run_cli(args + ["--N", "3", "--tuples", "2", "--trials", "5",
                           "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "error: resolvent-check takes exactly one --z value\n"
    assert not (tmp_path / "o").exists()


def test_resolvent_check_reads_its_one_z(tmp_path):
    tables = []
    for z in ("1j", "5+5j"):
        out = tmp_path / z
        assert run_cli(["resolvent-check", "--z", z, "--N", "3", "--tuples", "2",
                        "--trials", "5", "--seed", "4", "--out", str(out)]) == 0
        tables.append((out / "resolvent_check.csv").read_bytes())
    assert tables[0] != tables[1]


@pytest.mark.parametrize("z", ["1e-100j", "1e-300j", "1e200j"])
def test_resolvent_check_rejects_z_outside_the_trace_bound_range(tmp_path, capsys, z):
    # |Im z|^4 under- or overflows there, so the trace bounds cannot be formed
    assert run_cli(["resolvent-check", "--z", z, "--N", "3", "--tuples", "2",
                    "--trials", "5", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: |Im z| must lie in [1e-75, 1e+75]") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["semicircle-table", "--z", "1e155j"], "|Im z| must lie in [1e-75, 1e+75]"),
    (["semicircle-table", "--z", "1e300+1j"], "|z| must be at most 1e+75"),
    (["semicircle-table", "--z", "1e-200j"], "|Im z| must lie in [1e-75, 1e+75]"),
    (["semicircle-table", "--z", "1e-160j"], "|Im z| must lie in [1e-75, 1e+75]"),
    (["wigner-sweep", "--N", "2", "--seeds", "1", "--z", "1e-320j"],
     "|Im z| must lie in [1e-75, 1e+75]"),
], ids=["huge-im", "huge-re", "tiny-im", "tiny-im-root", "sweep-subnormal-im"])
def test_z_outside_the_float_range_exits_2(tmp_path, capsys, argv, message):
    # these raised OverflowError or ZeroDivisionError, or failed stieltjes_root
    assert run_cli([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["semicircle-table", "wigner-sweep", "resolvent-check"])
def test_malformed_z_exits_2_naming_its_flag(tmp_path, capsys, command, source):
    # complex() once raised here, and the error named neither the flag nor the key
    if source == "flag":
        args = [command, "--z", "abc"]
    else:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"command": command, "z_grid": ["abc"]}))
        args = [command, "--config", str(path)]
    assert run_cli([*args, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: --z values must be complex numbers; got 'abc'\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["thm12-check", "--multiset", "1.7e308,-1.7e308,-1.7e308", "--replicates", "10"],
    ["identities", "--multiset", "1.7e308,-1.7e308,-1.7e308"],
], ids=["thm12-check", "identities"])
def test_multiset_whose_sd_overflows_exits_2(tmp_path, capsys, argv):
    # the first value's deviation from the mean overflows; thm12-check once
    # standardized such a multiset to zeros and passed with bound 0
    assert run_cli([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("error: the sample mean and sd must be finite floats; "
                                       "got mu_hat = -5.66667e+307, sigma_hat = inf\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["thm12-check", "identities"])
@pytest.mark.parametrize("multiset", ["1e-14,2e-14,3e-14", "1e308,-1e308,0"])
def test_multiset_at_any_scale_runs(tmp_path, command, multiset):
    # the first was called constant, and the second's squares overflowed
    replicates = ["--replicates", "10"] if command == "thm12-check" else []
    assert run_cli([command, "--multiset", multiset, *replicates, "--out", str(tmp_path)]) == 0


def test_semicircle_table_accepts_the_ends_of_the_z_range(tmp_path):
    zs = "1e75j,1e-75j,1e75+1e-75j,-1e75-1e-75j,-7e74+7e74j,3e-75-1e-75j"
    assert run_cli(["semicircle-table", "--z", zs, "--out", str(tmp_path)]) == 0


def test_thm11_single_cell(tmp_path):
    out = tmp_path / "s"
    code = run_cli(["thm11-check", "--specs", "iid-uniform", "--n", "5",
                    "--functions", "cos", "--replicates", "4000",
                    "--out", str(out)])
    assert code == 0
    rows = read_rows(out, "thm11-check")
    assert len(rows) == 1
    assert rows[0]["dominated"] == "True"
    assert rows[0]["estimate_kind"] == "exact" and rows[0]["replicates"] == "0"


def test_thm12_small(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["thm12-check", "--n", "10", "--replicates", "5000",
                    "--out", str(out)]) == 0
    rows = read_rows(out, "thm12-check")
    assert len(rows) == 2
    assert {(r["estimate_kind"], r["replicates"]) for r in rows} == {("mc", "5000")}


@pytest.mark.parametrize("args, terms", [
    (["thm11-check"], ["first_order", "second_order", "third_moment"]),
    (["thm12-check"], ["second_order", "third_order"]),
    # theta ~ N(0, 0.5^2), X_i | theta ~ N(theta, 0.75): no exact A/B oracle
    (["thm11-check", "--spec-json", "{spec}"], ["first_order", "second_order", "third_moment"]),
], ids=["thm11-check", "thm12-check", "thm11-check-conditionally-iid"])
def test_bound_column_is_the_sum_of_its_term_columns(tmp_path, args, terms):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variant": "conditionally_iid",
                                "mixing": {"kind": "gaussian", "params": [0.0, 0.5]},
                                "conditional": "gaussian_mean", "scale": 0.75 ** 0.5, "n": 2}))
    out = tmp_path / "o"
    assert run_cli([a.format(spec=spec) for a in args] + ["--out", str(out)]) == 0
    rows = read_rows(out, args[0])
    header = list(rows[0])
    assert header[header.index("bound") + 1:header.index("estimate")] == terms
    for row in rows:
        # each cell is the repr of a float, so float() gives back its bits
        assert float(row["bound"]) == sum(float(row[t]) for t in terms), row


def test_ab_runs_once_per_coordinate_of_each_spec_and_n(tmp_path, monkeypatch):
    from collections import Counter

    from lindeberg.specs import IidFromDistribution, MarkovChain, MultisetPermutation

    calls = Counter()
    for cls in (IidFromDistribution, MarkovChain, MultisetPermutation):
        def spy(self, *args, _original=cls.ab_exact, **kwargs):
            calls[type(self).__name__, self.n] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "ab_exact", spy)
    assert run_cli(["thm11-check", "--n", "5,8", "--replicates", "200",
                    "--out", str(tmp_path)]) == 0
    assert calls == {(name, n): n for n in (5, 8) for name in
                     ("IidFromDistribution", "MarkovChain", "MultisetPermutation")}


def test_resolvent_check_small(tmp_path):
    out = tmp_path / "r"
    code = run_cli(["resolvent-check", "--tuples", "6", "--trials", "20",
                    "--out", str(out)])
    assert code == 0
    summary = read_summary(out, "resolvent-check")
    assert summary["checks"]["finite_difference_order3"]
    assert summary["checks"]["trace_bound_ratios"]


def test_wigner_sweep_row_count_and_median(tmp_path):
    out = tmp_path / "w"
    code = run_cli(["wigner-sweep", "--N", "20,40", "--seeds", "3",
                    "--ensemble", "gaussian", "--out", str(out)])
    assert code == 0
    rows = read_rows(out, "wigner-sweep")
    assert len(rows) == 6
    summary = read_summary(out, "wigner-sweep")
    assert set(summary["median_ks"]) == {"20", "40"}


def test_wigner_sweep_is_byte_deterministic(tmp_path):
    args = ["wigner-sweep", "--N", "25", "--seeds", "2", "--seed", "11"]
    run_cli(args + ["--out", str(tmp_path / "a")])
    run_cli(args + ["--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "wigner_sweep.csv").read_bytes()
    b = (tmp_path / "b" / "wigner_sweep.csv").read_bytes()
    assert a == b


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-command"])
    assert exc.value.code == 2


# The flags each command reads besides --config, --seed and --out.
_FLAGS_READ = {
    "identities": {"--n", "--multiset"},
    "thm11-check": {"--replicates", "--n", "--specs", "--functions", "--spec-json"},
    "thm12-check": {"--replicates", "--n", "--multiset"},
    "resolvent-check": {"--N", "--z", "--trials", "--tuples"},
    "wigner-sweep": {"--N", "--ensemble", "--seeds", "--z"},
    "semicircle-table": {"--x", "--z"},
}


def test_help_exits_0(capsys):
    for command, flags in _FLAGS_READ.items():
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", capsys.readouterr().out))
        assert listed == {"--help", "--config", "--seed", "--out"} | flags, command


@pytest.mark.parametrize("args", [
    ["identities", "--replicates", "5"],
    ["thm11-check", "--multiset", "1,2,3"],
    ["thm12-check", "--specs", "cos"],
    ["resolvent-check", "--seeds", "3"],
    ["wigner-sweep", "--threads", "2"],
    ["semicircle-table", "--seeds", "3"],
], ids=" ".join)
def test_ignored_flag_exits_2(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_IGNORED_KEYS = [
    ("identities", "ensemble", "gaussian"),
    ("thm11-check", "multiset", [1.0, 2.0]),
    ("thm12-check", "specs", ["iid-uniform"]),
    ("resolvent-check", "seeds", 3),
    ("wigner-sweep", "replicates", 100),
    ("semicircle-table", "N_list", [5]),
]


@pytest.mark.parametrize("command,key,value", _IGNORED_KEYS,
                         ids=[f"{command} {key}" for command, key, _ in _IGNORED_KEYS])
def test_ignored_config_key_exits_2(tmp_path, capsys, command, key, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"command": command, key: value}))
    assert run_cli([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", sorted(_FLAGS_READ))
def test_to_dict_config_round_trip(tmp_path, command):
    cfg = cli.ExperimentConfig(command=command, seed=7, out=str(tmp_path / "o"))
    written = cfg.to_dict()
    assert len(written) == 3 + len(_FLAGS_READ[command])
    path = tmp_path / "c.json"
    path.write_text(json.dumps(written))
    args = cli._build_parser().parse_args([command, "--config", str(path)])
    assert cli.build_config(args).to_dict() == written


@pytest.mark.parametrize("args", [
    ["identities", "--n", ""],
    ["identities", "--multiset", ","],
    ["thm11-check", "--specs", ""],
    ["thm11-check", "--functions", ""],
    ["wigner-sweep", "--N", ""],
    ["semicircle-table", "--x", ""],
    ["semicircle-table", "--z", ""],
], ids=" ".join)
def test_empty_list_flag_exits_2(tmp_path, capsys, args):
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {args[1]} needs at least one value\n"
    assert not any(tmp_path.iterdir())


def test_command_without_checks_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"command": "thm11-check", "specs": []}))
    assert run_cli(["thm11-check", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "error: thm11-check produced no checks\n"
    assert not (tmp_path / "o").exists()


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["identities", "--config", str(bad)]) == 2

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"command": "wigner-sweep"}))
    assert run_cli(["identities", "--config", str(wrong)]) == 2

    not_an_object = tmp_path / "list.json"
    not_an_object.write_text(json.dumps(["identities"]))
    assert run_cli(["identities", "--config", str(not_an_object)]) == 2

    # values of the wrong type for their field, each sent to a command that reads
    # the field; json.dumps writes NaN and Infinity
    for command, key, value in [
            ("thm11-check", "replicates", float("nan")), ("thm12-check", "replicates", 2.5),
            ("resolvent-check", "tuples", "2"), ("wigner-sweep", "seeds", float("inf")),
            ("identities", "seed", 1.5), ("identities", "seed", True),
            ("thm11-check", "functions", "cos"), ("identities", "n_list", [5, None]),
            ("semicircle-table", "z_grid", [None]), ("thm11-check", "custom_spec", [1]),
            # integers beyond a float's range, which float() cannot convert
            ("semicircle-table", "x_values", [10 ** 400]),
            ("identities", "multiset", [1, 2 ** 1024])]:
        assert key in cli.ExperimentConfig(command).to_dict(), (command, key)
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps({"command": command, key: value}))
        capsys.readouterr()
        assert run_cli([command, "--config", str(typed),
                        "--out", str(tmp_path / "o")]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key!r} must be ") and err.count("\n") == 1


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "identities", "bogus": 1}))
    assert run_cli(["identities", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "bogus" in err


def test_failing_check_exits_1(tmp_path, monkeypatch, capsys):
    def broken(cfg):
        return [{"v": 0.0}], {"broken": False}, {}

    monkeypatch.setitem(cli._COMMANDS, "semicircle-table", broken)
    code = run_cli(["semicircle-table", "--out", str(tmp_path)])
    assert code == 1
    assert "broken" in capsys.readouterr().err


@pytest.mark.parametrize("shift", [1e-3, 2.0], ids=["off-closed-form", "over-3-sqrt-n"])
def test_wrong_covariance_gap_fails_its_check(tmp_path, monkeypatch, capsys, shift):
    true_pair = exchangeable.covariance_matrices

    def perturbed(n):
        pair = true_pair(n)
        pair.sigma_tilde[0, 0] += shift  # widens the gap by shift; 3 sqrt(3) - 4 = 1.2
        return pair

    monkeypatch.setattr(exchangeable, "covariance_matrices", perturbed)
    assert run_cli(["identities", "--n", "3", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip() == "FAILED: covariance_gap_n3"


def test_wrong_g_inverse_entry_fails_the_covariance_gap(tmp_path, monkeypatch, capsys):
    # sigma_tilde is multiplied out from build_g_transform's inverse, so a wrong
    # entry there (-1/(n - j) in place of -1/(n - 1 - j)) moves the float gap
    # off the harmonic closed form, which the rational oracle still meets
    true_transform = exchangeable.build_g_transform

    def perturbed(n):
        gt = true_transform(n)
        inverse = gt.inverse.copy()
        inverse[n - 1, 0] = -1.0 / n
        return exchangeable.GTransform(n, gt.matrix, inverse)

    monkeypatch.setattr(exchangeable, "build_g_transform", perturbed)
    assert run_cli(["identities", "--n", "3", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip() == "FAILED: covariance_gap_n3"


def test_wrong_composition_weight_fails_the_identities(tmp_path, monkeypatch, capsys):
    # the identity means weight each value-count composition by its number of
    # index sets; one extra index set moves the enumerated mean square
    true_law = MultisetPermutation.prefix_law

    def perturbed(spec, size):
        law = true_law(spec, size)
        if law is None or size == 0:
            return law
        values, counts, compositions, sets = law
        first, *rest = compositions
        return values, counts, iter([(first[0], first[1] + 1), *rest]), sets

    monkeypatch.setattr(MultisetPermutation, "prefix_law", perturbed)
    assert run_cli(["identities", "--n", "4", "--out", str(tmp_path)]) == 1
    failed = capsys.readouterr().err.strip().removeprefix("FAILED: ").split(", ")
    assert "conditional_mean_square_n4" in failed


def test_identities_run_past_nine_values(tmp_path):
    assert run_cli(["identities", "--n", "10", "--out", str(tmp_path)]) == 0
    summary = read_summary(tmp_path, "identities")
    assert summary["all_passed"] and len(summary["checks"]) == 6


def test_identities_past_the_enumeration_budget_exit_2(tmp_path, capsys):
    # 18 distinct values give 2^18 candidate value counts, past the 200,000 budget
    assert run_cli(["identities", "--n", "18", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --n 18 (ramp multiset): ") and err.count("\n") == 1
    assert "200000" in err
    assert not list(tmp_path.iterdir())


def test_cells_and_limits_keep_their_frozen_values():
    # The commands and the acceptance suite read these from suites.py alone, so
    # one edit there would move both; docs/calibration.md freezes them.
    assert suites.LIMITS == {
        "identity": 1e-12, "covariance_gap_closed_form": 1e-10,
        "covariance_gap_over_sqrt_n": 3.0, "stein": 1e-10, "finite_difference": 1e-6,
        "trace_ratio": 1.0, "semicircle_cdf": 1e-6, "stieltjes_root": 1e-12,
        "ks_rademacher_perm_N400": 0.10, "ks_gaussian_N400": 0.06,
        "stieltjes_gap_N400": 0.05,
    }
    assert suites.IDENTITY_N_VALUES == (3, 4, 5, 6, 7)
    assert suites.RESOLVENT_N_VALUES == (2, 3, 4, 5, 6, 7, 8)
    assert (suites.RESOLVENT_Z, suites.RESOLVENT_TUPLES, suites.RESOLVENT_TRIALS) == (1j, 50, 200)
    assert (suites.SWEEP_N_VALUES, suites.SWEEP_SEEDS) == ((50, 100, 200, 400), 20)
    assert suites.Z_GRID == (1j, 2j, 1 + 1j)
    assert suites.SEMICIRCLE_X == (-2.0, -1.0, 0.0, 0.5, 2.0)
    covs, draws = suites.stein_covariances(np.random.default_rng(0)), np.random.default_rng(0)
    assert len(covs) == 5
    for cov in covs:
        m = draws.standard_normal((4, 4))
        assert np.array_equal(cov, m @ m.T / 4.0)


def test_commands_take_their_limits_from_suites(tmp_path, monkeypatch, capsys):
    # At -1 no deviation is small enough and no slack (every one here is below
    # 1) large enough, so a check fails exactly when it reads its limit there;
    # at 0 the identity checks would pass, their deviations being exactly 0.
    for key in suites.LIMITS:
        monkeypatch.setitem(suites.LIMITS, key, -1.0)
    runs = {
        "resolvent-check": (["--N", "3", "--tuples", "2", "--trials", "2"],
                            ["finite_difference_order1", "finite_difference_order2",
                             "finite_difference_order3", "trace_bound_ratios"]),
        "identities": (["--n", "3"],
                       ["conditional_mean_identity_n3", "conditional_mean_square_n3",
                        "covariance_gap_n3", "martingale_increment_n3",
                        "moment_inequalities_n3", "stein_polynomial"]),
        "semicircle-table": ([], ["cdf_matches_density", "stieltjes_root"]),
    }
    for command, (flags, failing) in runs.items():
        assert run_cli([command, *flags, "--out", str(tmp_path / command)]) == 1
        assert capsys.readouterr().err.strip() == "FAILED: " + ", ".join(failing)


@pytest.mark.parametrize("checks, extra", [
    ({"ok": True}, {"median_ks": {"50": math.nan}}),
    ({"ok": True}, {"z_grid": [math.inf]}),
    ({"ok": math.nan}, {}),
], ids=["nan-extra", "inf-extra", "nan-check"])
def test_nonfinite_summary_exits_2_before_writing(tmp_path, monkeypatch, capsys, checks, extra):
    def nonfinite(cfg):
        return [{"v": 0.0}], checks, extra

    monkeypatch.setitem(cli._COMMANDS, "semicircle-table", nonfinite)
    assert run_cli(["semicircle-table", "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = cli.ExperimentConfig(command="semicircle-table", seed=3,
                               x_values=[0.0, 1.0], out=str(tmp_path / "c"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    code = run_cli(["semicircle-table", "--config", str(path),
                    "--seed", "9", "--out", str(tmp_path / "d")])
    assert code == 0
    summary = read_summary(tmp_path / "d", "semicircle-table")
    assert summary["seed"] == 9
    assert len(read_rows(tmp_path / "d", "semicircle-table")) == 2


def test_config_round_trip():
    cfg = cli.ExperimentConfig(command="wigner-sweep", seed=4, N_list=[50, 100],
                               ensemble="gaussian", z_grid=["1j"], seeds=7)
    assert cli.ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


def test_custom_spec_json_document(tmp_path):
    from lindeberg.specs import MultisetPermutation

    spec_path = tmp_path / "spec.json"
    values = [-1.0, -1.0, 1.0, 1.0, 0.0]
    spec_path.write_text(json.dumps(spec_doc(MultisetPermutation(tuple(values)))))
    out = tmp_path / "o"
    code = run_cli(["thm11-check", "--spec-json", str(spec_path),
                    "--functions", "cos", "--replicates", "4000",
                    "--out", str(out)])
    assert code == 0
    rows = read_rows(out, "thm11-check")
    assert len(rows) == 1
    assert rows[0]["spec"] == "multiset"
    assert rows[0]["n"] == "5"
    assert rows[0]["dominated"] == "True"


@pytest.mark.parametrize("n_flag", ["7,9", "4"])
def test_spec_json_length_mismatch_exits_2(tmp_path, capsys, n_flag):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_iid(_N01, 5)))
    code = run_cli(["thm11-check", "--spec-json", str(spec_path), "--n", n_flag,
                    "--functions", "cos", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "spec's n" in err


@pytest.mark.parametrize("args, cell", [
    (["identities", "--n", "1"], "--n 1 (ramp multiset)"),
    (["thm12-check", "--n", "1"], "--n 1 (ramp multiset)"),
    (["thm11-check", "--n", "1"], "--n 1 (spec multiset-rademacher)"),
    *((["wigner-sweep", "--N", "1", "--seeds", "1", "--ensemble", e], f"--N 1 (ensemble {e})")
      for e in cli._ENSEMBLE_NAMES),
], ids=["identities", "thm12-check", "thm11-check",
        *(f"wigner-sweep-{e}" for e in cli._ENSEMBLE_NAMES)])
def test_degenerate_cell_exits_2_naming_its_flag_and_cell(tmp_path, capsys, args, cell):
    # one entry cannot be standardized; the message says which cell has one
    assert run_cli([*args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cell}: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_bad_ensemble_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["wigner-sweep", "--ensemble", "bogus", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_ensemble_choices_are_the_spectral_ensembles():
    from lindeberg.spectral import ENSEMBLES

    assert cli._ENSEMBLE_NAMES == tuple(sorted(ENSEMBLES))


def test_infinite_third_moment_gives_infinite_bound(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"variant": "iid", "dist": {"kind": "student_t", "params": [2.5]}, "n": 5}))
    out = tmp_path / "o"
    code = run_cli(["thm11-check", "--spec-json", str(spec_path),
                    "--functions", "cos", "--replicates", "4000", "--out", str(out)])
    assert code == 0
    rows = read_rows(out, "thm11-check")
    assert [r["bound"] for r in rows] == ["inf"]
    assert rows[0]["third_moment"] == "inf" and rows[0]["dominated"] == "True"
    assert rows[0]["estimate_kind"] == "mc" and rows[0]["replicates"] == "4000"


@pytest.mark.parametrize("dist,second,third", [
    ({"kind": "uniform", "params": [-1e80, 1e80]}, 1e160 / 3.0, 1e240 / 4.0),
    ({"kind": "uniform", "params": [-1e160, 1e160]}, math.inf, math.inf),
    ({"kind": "gaussian", "params": [0.0, 1e104]}, 1e208, math.inf),
], ids=["uniform-1e80", "uniform-1e160", "gaussian-1e104"])
def test_huge_law_parameters_give_a_finite_or_infinite_bound(tmp_path, capsys, dist, second,
                                                             third):
    # E X^2 and E|X|^3 of the law, against E Y^2 = 1 and E|Y|^3 = 2 sqrt(2 / pi)
    from lindeberg.suites import suite_function

    n = 5
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_iid(dist, n)))
    out = tmp_path / "o"
    assert run_cli(["thm11-check", "--spec-json", str(spec_path), "--functions", "cos",
                    "--replicates", "2000", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, l2, l3 = suite_function("cos", n).unmixed_bounds
    expected = (0.5 * n * (second - 1.0) * l2
                + n * l3 * (third + 2.0 * math.sqrt(2.0 / math.pi)) / 6.0)
    row, = read_rows(out, "thm11-check")
    assert float(row["bound"]) == pytest.approx(expected, rel=1e-12)
    assert row["estimate_kind"] == "mc" and row["dominated"] == "True"


def _iid(dist, n=3):
    return {"variant": "iid", "dist": dist, "n": n}


def _mixed(mixing, conditional="gaussian_mean", scale=1.0):
    return {"variant": "conditionally_iid", "mixing": mixing, "conditional": conditional,
            "scale": scale, "n": 3}


def _markov(**fields):
    return {"variant": "markov", "states": [-1.0, 1.0], "initial": [0.5, 0.5],
            "kernel": [[0.7, 0.3], [0.4, 0.6]], "n": 3, **fields}


_N01 = {"kind": "gaussian", "params": [0, 1]}


@pytest.mark.parametrize("doc", [
    {"values": [1.0, 2.0, 3.0]},
    {"variant": "bogus", "n": 3},
    {"variant": "iid", "n": 3},
    _iid(_N01, None),
    [1.0, 2.0, 3.0],
    _iid({"kind": "uniform", "params": [1, 1]}),
    _iid({"kind": "uniform", "params": [-1e308, 1e308]}),
    _mixed({"kind": "uniform", "params": [1, 1]}),
    _iid({"kind": "cauchy", "params": [0, 1]}),
    _iid({"kind": "gaussian", "params": [0, 1, 2]}),
    _iid({"kind": "gaussian"}),
    _iid({"kind": "finite", "values": [0.0, 1.0]}),
    _iid({"kind": "gaussian", "params": [0, -1]}),
    _iid({"kind": "student_t", "params": [0]}),
    _iid({"kind": "finite", "values": [0.0, 1.0], "probs": [0.5, 0.6]}),
    _iid({"kind": "gaussian", "params": [float("nan"), 1]}),
    _iid(_N01, 0),
    _mixed(_N01, "gaussian_tail"),
    _mixed(_N01, scale=-1.0),
    _mixed(_N01, scale=float("nan")),
    {"variant": "multiset", "values": [1.0, float("nan"), 2.0]},
    {"variant": "multiset", "values": [1e200 * (k - 10) for k in range(20)]},
    {"variant": "markov", "states": [0.0, float("inf")], "initial": [0.5, 0.5],
     "kernel": [[0.5, 0.5], [0.5, 0.5]], "n": 3},
    {"variant": "markov", "states": [0.0, 1.0], "initial": [0.5, 0.5],
     "kernel": [[float("nan"), 0.5], [0.5, 0.5]], "n": 3},
    _mixed(_N01, "gaussian_scale"),
    _markov(initial=[0.5, 0.25, 0.25]),
    _markov(kernel=[[0.6, 0.5], [0.5, 0.5]]),
    _markov(kernel=[[1.0, 0.0]]),
    _markov(initial=[1.5, -0.5]),
    {**_iid(_N01), "seed": 3},
    _iid({**_N01, "sigma": 2.0}),
], ids=["no-variant", "unknown-variant", "missing-field", "wrong-field-type", "not-an-object",
        "uniform-empty", "uniform-width-overflow", "uniform-empty-mixing", "unknown-kind",
        "wrong-arity", "missing-params", "missing-probs", "negative-sigma", "zero-df",
        "probs-sum-1.1", "nan-param", "zero-n", "unknown-conditional", "negative-scale",
        "nan-scale", "nan-multiset", "multiset-squares-overflow", "infinite-state", "nan-kernel", "gaussian-scale",
        "initial-wrong-length", "kernel-row-sum-1.1", "kernel-one-row", "negative-initial",
        "unknown-key", "unknown-law-key"])
def test_bad_spec_json_exits_2(tmp_path, capsys, doc):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    code = run_cli(["thm11-check", "--spec-json", str(spec_path),
                    "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", [_iid(_N01, 10**400), _markov(n=2**70)], ids=["iid", "markov"])
def test_length_beyond_any_array_exits_2(tmp_path, capsys, doc):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    code = run_cli(["thm11-check", "--spec-json", str(spec_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n must be at most ") and err.count("\n") == 1


@pytest.mark.parametrize("doc, field", [
    (_mixed(_N01, "gaussian_scale"), "conditional"),
    (_markov(initial=[0.5, 0.25, 0.25]), "initial"),
    (_markov(kernel=[[0.6, 0.5], [0.5, 0.5]]), "kernel"),
    ({**_iid(_N01), "seed": 3}, "seed"),
    (_iid({**_N01, "sigma": 2.0}), "sigma"),
    (_markov(states=["a", "b"]), "markov states"),
    (_markov(states=3), "markov states"),
    (_iid({"kind": "gaussian", "params": ["x", 1]}), "gaussian mu"),
    (_iid({"kind": "gaussian", "params": [0, [1]]}), "gaussian sigma"),
    (_iid({"kind": "gaussian", "params": ["0", "1"]}), "gaussian mu"),
    ({"variant": "multiset", "values": [1, 2, "c"]}, "multiset values"),
    ({"variant": "multiset", "values": [True, False]}, "multiset values"),
    (_iid({"kind": "finite", "values": ["x"], "probs": [1.0]}), "finite values"),
    (_mixed(_N01, scale="x"), "scale"),
], ids=["gaussian-scale", "initial-wrong-length", "kernel-row-sum-1.1", "unknown-key",
        "unknown-law-key", "string-state", "number-for-states", "string-param", "list-param",
        "numeric-strings", "string-value", "bool-values", "string-atom", "string-scale"])
def test_bad_spec_is_rejected_at_config_time_naming_its_field(tmp_path, doc, field):
    # from a --spec-json file and from a config file alike, before any command work
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"command": "thm11-check", "custom_spec": doc}))
    parser = cli._build_parser()
    for argv in (["--spec-json", str(spec_path)], ["--config", str(config_path)]):
        with pytest.raises(ValueError, match=field):
            cli.build_config(parser.parse_args(["thm11-check", *argv]))


@pytest.mark.parametrize("command", ["identities", "thm12-check"])
def test_nonfinite_multiset_exits_2(tmp_path, capsys, command):
    assert run_cli([command, "--multiset", "1,nan,2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "finite" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_x_exits_2(tmp_path, capsys, value):
    assert run_cli(["semicircle-table", "--x", value, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "finite" in err


def test_student_t_large_df_third_moment(tmp_path):
    # Gamma(df / 2) overflows a float at df = 400; the moment must not
    from scipy.integrate import quad
    from scipy.stats import t

    from lindeberg.suites import suite_function

    df, n = 400, 5
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_iid({"kind": "student_t", "params": [df]}, n)))
    out = tmp_path / "o"
    assert run_cli(["thm11-check", "--spec-json", str(spec_path), "--functions", "cos",
                    "--replicates", "4000", "--out", str(out)]) == 0
    m3_t = 2.0 * quad(lambda x: x ** 3 * t.pdf(x, df), 0.0, math.inf,
                      epsabs=0.0, epsrel=1e-13, limit=200)[0]
    m3_gauss = 2.0 * math.sqrt(2.0 / math.pi)
    expected = n * suite_function("cos", n).unmixed_bounds[2] * (m3_t + m3_gauss) / 6.0
    row, = read_rows(out, "thm11-check")
    assert float(row["third_moment"]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("command", ["identities", "thm12-check"])
def test_multiset_length_mismatch_exits_2(tmp_path, capsys, command):
    code = run_cli([command, "--n", "5", "--multiset", "1,2,3",
                    "--out", str(tmp_path)])
    assert code == 2
    assert "multiset length" in capsys.readouterr().err


def test_thm12_uses_explicit_multiset(tmp_path):
    out = tmp_path / "m"
    assert run_cli(["thm12-check", "--multiset", "1,2,3,4,8", "--replicates", "2000",
                    "--out", str(out)]) == 0
    assert {row["n"] for row in read_rows(out, "thm12-check")} == {"5"}


@pytest.mark.parametrize("args", [
    ["identities", "--n", "0"],
    ["identities", "--n", "-1"],
    ["thm11-check", "--replicates", "0"],
    ["thm12-check", "--replicates", "1"],
    ["wigner-sweep", "--seeds", "0"],
    ["wigner-sweep", "--N", "0"],
    ["resolvent-check", "--trials", "0"],
    ["resolvent-check", "--tuples", "0"],
], ids=" ".join)
def test_nonpositive_counts_exit_2(tmp_path, capsys, args):
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_NO_SCIPY_SCRIPT = """
import json, sys
from lindeberg import cli
out = sys.argv[1]
for args in json.loads(sys.argv[2]):
    if cli.main(args + ["--out", out]) != 0:
        sys.exit(f"exit status != 0: {args}")
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    runs = [
        ["identities", "--n", "3"],
        ["thm11-check", "--n", "5", "--specs", "iid-uniform", "--functions", "cos",
         "--replicates", "200"],
        ["thm12-check", "--n", "5", "--replicates", "200"],
        ["resolvent-check", "--N", "3", "--tuples", "2", "--trials", "5"],
        ["wigner-sweep", "--N", "20", "--seeds", "2"],
        ["semicircle-table", "--x", "0", "--z", "1j"],
    ]
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path), json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout.splitlines()[-1]) == []


_MODULES_SCRIPT = """
import json, sys
from lindeberg import cli
args = json.loads(sys.argv[1])
code = cli.main(args) if args else 0
spectral = sys.modules.get("lindeberg.spectral")
bound = bool(spectral and spectral._two_stage_driver.cache_info().currsize)
print(json.dumps([code, sorted(sys.modules), bound]))
"""

_TINY_THM11 = ["--functions", "cos", "--replicates", "200"]


# The package modules every run loads: argument handling, the laws and specs
# that spec documents name, and the samplers.
_ALWAYS_LOADED = {"cli", "suites", "functions", "sampling", "laws", "specs", "mixture",
                  "standardize", "value"}

# Each run loads only the modules its subcommand calls: the package modules it
# loads beyond ``_ALWAYS_LOADED``, and the modules (package ones, numpy.ma and
# standard-library ones) it must not load.  No run builds classes through
# ``dataclasses``, and only ``identities``, which forms exact rationals, loads
# ``fractions`` and ``decimal`` (numpy itself imports ``inspect``, so nothing is
# said of it).  None of these runs solves an order the two-stage eigensolver
# takes, so none binds OpenBLAS through ctypes (numpy imports the ctypes module
# itself, so the binding is checked).
_STDLIB_UNUSED = {"dataclasses", "fractions", "decimal"}  # identities loads the last two


@pytest.mark.parametrize("args, loads, unused", [
    ([], set(), {"exchangeable", "spectral", "resolvent", "swap", *_STDLIB_UNUSED}),
    (["thm11-check", "--n", "5", "--specs", "iid-uniform", *_TINY_THM11],
     {"swap"}, {"exchangeable", "spectral", "resolvent", *_STDLIB_UNUSED}),
    (["thm11-check", "--spec-json", "{spec}", *_TINY_THM11],
     {"swap"}, {"exchangeable", "spectral", "resolvent", *_STDLIB_UNUSED}),
    (["identities", "--n", "3"], {"exchangeable"},
     {"spectral", "resolvent", "swap", "dataclasses"}),
    (["thm12-check", "--n", "5", "--replicates", "200"], {"swap", "exchangeable"},
     {"spectral", "resolvent", *_STDLIB_UNUSED}),
    (["wigner-sweep", "--N", "20", "--seeds", "2"], {"spectral"},
     {"exchangeable", "resolvent", "numpy.ma", *_STDLIB_UNUSED}),
    (["semicircle-table"], {"spectral"}, {"exchangeable", "resolvent", *_STDLIB_UNUSED}),
    (["resolvent-check", "--N", "3", "--tuples", "2", "--trials", "5"],
     {"spectral", "resolvent"}, {"exchangeable", "swap", *_STDLIB_UNUSED}),
], ids=["import", "thm11-check", "thm11-check-spec-json", "identities", "thm12-check",
        "wigner-sweep", "semicircle-table", "resolvent-check"])
def test_each_command_loads_only_the_modules_it_calls(tmp_path, args, loads, unused):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variant": "conditionally_iid",
                                "mixing": {"kind": "gaussian", "params": [0.0, 0.5]},
                                "conditional": "gaussian_mean", "scale": 0.75 ** 0.5, "n": 2}))
    if args:
        args = [a.format(spec=spec) for a in args] + ["--out", str(tmp_path / "o")]
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", _MODULES_SCRIPT, json.dumps(args)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    code, modules, bound = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    names = {m.removeprefix("lindeberg.") for m in modules}
    assert {m.removeprefix("lindeberg.") for m in modules
            if m.startswith("lindeberg.")} == _ALWAYS_LOADED | loads
    assert not names & unused
    assert not bound


@pytest.mark.parametrize("args", [
    ["thm12-check", "--n", "7,50", "--replicates", "30001", "--seed", "3"],
    # the product Gauss-Legendre rule of an i.i.d. uniform law at n = 2
    ["thm11-check", "--spec-json", "{spec}", "--seed", "3"],
], ids=["thm12-check", "thm11-check-uniform-n2"])
def test_thm12_bytes_do_not_depend_on_blas_threads(tmp_path, args):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variant": "iid", "n": 2, "dist": {
        "kind": "uniform", "params": [-math.sqrt(3.0), math.sqrt(3.0)]}}))
    root = Path(__file__).resolve().parent.parent
    tables = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        out = tmp_path / f"blas{threads}"
        result = subprocess.run(
            [sys.executable, "-m", "lindeberg", *(a.format(spec=spec) for a in args),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        stem = args[0].replace("-", "_")
        tables.append((out / f"{stem}.csv").read_bytes())
    assert tables[0] == tables[1]


# VmHWM of a fresh interpreter, as in test_spectral: what one thm11-check run
# adds to the resident high-water mark after the imports.
_THM11_RSS_SCRIPT = """
import io, sys, tempfile
from contextlib import redirect_stdout
from lindeberg import cli

def high_water():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM"))

base = high_water()
with tempfile.TemporaryDirectory() as out, redirect_stdout(io.StringIO()):
    code = cli.main(["thm11-check", "--spec-json", sys.argv[1], "--replicates", sys.argv[2],
                     "--out", out])
assert code == 0, code
print(high_water() - base)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_thm11_monte_carlo_peak_memory_is_flat_in_replicates(tmp_path):
    # A Student-t X has no exact ridge law, so all three functions take the
    # Monte Carlo route.  Drawn in row blocks, only their three difference
    # vectors grow with the replicates: 24 bytes a replicate, where whole
    # batches of X and Y took 800 at n = 50.
    spec = tmp_path / "t.json"
    spec.write_text(json.dumps({"variant": "iid", "dist": {"kind": "student_t",
                                                           "params": [5.0]}, "n": 50}))
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    grown = []
    for replicates in (25_000, 100_000):
        result = subprocess.run([sys.executable, "-c", _THM11_RSS_SCRIPT, str(spec),
                                 str(replicates)], env=env, capture_output=True, text=True,
                                timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        grown.append(int(result.stdout.split()[-1]))
    assert grown[1] - grown[0] < 3 * 8 * 75_000 + 2 ** 20
