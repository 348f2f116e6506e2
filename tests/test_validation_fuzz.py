"""Fuzzed input validation: malformed configs and spec documents raise only
ValueError, which ``main`` prints as one ``error:`` line and exits 2 on.

A config goes through the path ``main`` takes up to the command: a JSON file
read by ``build_config`` (``ExperimentConfig.from_dict`` and its range
checks).  A spec document goes through ``spec_from_dict``.  Last, whole
commands run through ``main`` on flags that ``build_config`` accepts, at tiny
sizes and with extreme values, and must exit 0, 1 or 2 without raising or
letting numpy warn of an overflow or an invalid value; ``thm11-check`` also
runs on accepted spec documents of each variant, multisets and mixtures
with capped A/B among them: those of moderate numbers must reach its
checks, those with numbers up to +-1e300 may instead be rejected with one
``error:`` line, and neither may write a NaN.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindeberg import cli, suites
from lindeberg.laws import _LAW_TYPES
from lindeberg.sampling import _SPEC_TYPES, spec_from_dict

# JSON numbers: small counts, any int (beyond a float's range too), any float
_NUMBERS = st.one_of(
    st.integers(-3, 5),
    st.integers(),
    st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 1024, 2 ** 63, -0.0, 0.5]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=6),
                     st.sampled_from(["1j", "0.3+0.8j", "nan", "inf", "2", "gaussian"]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)

_FUZZ = settings(max_examples=200, deadline=None)


def _law():
    """Law documents: mostly the right keys, with values of any JSON shape."""
    return st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(sorted(_LAW_TYPES)) | _JSON,
                               "params": st.lists(_NUMBERS, max_size=3) | _JSON}),
        st.fixed_dictionaries({"kind": st.just("finite"),
                               "values": st.lists(_NUMBERS, max_size=4) | _JSON,
                               "probs": st.lists(_NUMBERS, max_size=4) | _JSON}),
        _JSON,
    )


_FIELD_VALUES = st.one_of(_NUMBERS, st.lists(_NUMBERS, max_size=5),
                          st.lists(st.lists(_NUMBERS, max_size=3), max_size=3), _law(), _JSON)


@st.composite
def _spec_docs(draw):
    """A variant with some of its fields (any values) and now and then a stray key."""
    variant = draw(st.sampled_from(sorted(_SPEC_TYPES)) | _JSON)
    names = (list(_SPEC_TYPES[variant]._fields)
             if isinstance(variant, str) and variant in _SPEC_TYPES else ["n"])
    doc = {"variant": variant}
    for name in names:
        if draw(st.integers(0, 9)):  # most fields are present
            doc[name] = draw(_FIELD_VALUES)
    if not draw(st.integers(0, 9)):
        doc[draw(st.text(max_size=6))] = draw(_JSON)
    return doc


def _raises_only_value_error(call, *args) -> None:
    try:
        call(*args)
    except ValueError:
        pass


@_FUZZ
@given(_spec_docs())
def test_spec_documents_raise_only_value_error(doc):
    _raises_only_value_error(spec_from_dict, doc)


@_FUZZ
@given(_JSON)
def test_any_json_value_as_a_spec_raises_only_value_error(doc):
    _raises_only_value_error(spec_from_dict, doc)


_CONFIG_FIELDS = {key: tp for key, (tp, *_) in cli._CONFIG_FIELDS.items()}


def _config_value(annotation: str):
    """Mostly a value of the field's JSON type, with any number in it; else any JSON."""
    if "list[str]" in annotation:
        typed = st.lists(st.sampled_from(["1j", "0.5+0.5j", "2", "nan", ""]) | st.text(max_size=4),
                         max_size=3)
    elif "list" in annotation:
        typed = st.lists(_NUMBERS, min_size=1, max_size=4)
    elif "dict" in annotation:
        typed = _spec_docs()
    elif "str" in annotation:
        typed = st.sampled_from(["gaussian", "rademacher-perm", "bogus"]) | st.text(max_size=6)
    else:
        typed = _NUMBERS
    return st.one_of(typed, typed, _JSON)


@st.composite
def _configs(draw, command):
    """A config document for ``command``: some of the keys it reads, now and
    then a key it does not read, and a ``command`` entry or none."""
    reads = ["seed", "out", *cli._READS[command]]
    doc = {key: draw(_config_value(_CONFIG_FIELDS[key]))
           for key in draw(st.lists(st.sampled_from(reads), max_size=4, unique=True))}
    if not draw(st.integers(0, 9)):
        key = draw(st.sampled_from([*_CONFIG_FIELDS, "bogus"]))
        doc[key] = draw(_config_value(_CONFIG_FIELDS.get(key, "")))
    if draw(st.booleans()):
        doc["command"] = draw(st.sampled_from([command, *sorted(cli._READS)]))
    return doc


_PARSER = cli._build_parser()


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


# 100 examples for each of the six commands
@pytest.mark.parametrize("command", sorted(cli._READS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_config_documents_raise_only_value_error(config_path, command, data):
    config_path.write_text(json.dumps(data.draw(_configs(command))))
    args = _PARSER.parse_args([command, "--config", str(config_path)])
    _raises_only_value_error(cli.build_config, args)


# Floats from the subnormals to the largest, of either sign, and the non-finite ones.
_EXTREME_FLOATS = st.one_of(
    st.floats(-3.0, 3.0),
    st.builds(lambda m, k: float(f"{m}e{k}"), st.integers(-9, 9), st.integers(-324, 308)),
    st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -0.0,
                     float("inf"), float("nan")]),
)


def _power(sign_choices):
    return st.builds(lambda sign, m, k: f"{sign}{m}e{k}", st.sampled_from(sign_choices),
                     st.integers(1, 9), st.integers(-320, 320))


# z strings whose parts run from 1e-320 to 1e320, pure imaginary or not
_Z_TEXT = st.one_of(
    st.builds(lambda im: f"{im}j", _power(["", "-"])),
    st.builds(lambda re, im: f"{re}{im}j", _power(["", "-"]), _power(["+", "-"])),
    st.sampled_from(["1j", "2j", "1+1j", "0.5-0.5j"]),
)


def _joined(strategy, max_size):
    return st.lists(strategy, min_size=1, max_size=max_size).map(
        lambda values: ",".join(str(v) for v in values))


# Every flag a command may read.  The sizing flags are given, at tiny sizes, as
# a default size is far larger; only --n is left out now and then where
# --multiset can set n.  The other flags are given now and then.
_SIZES = {
    "replicates": st.integers(2, 40).map(str),
    "n_list": _joined(st.integers(1, 5), 2),
    "N_list": _joined(st.integers(1, 5), 2),
    "seeds": st.integers(1, 2).map(str),
    "trials": st.integers(1, 3).map(str),
    "tuples": st.integers(1, 2).map(str),
}
_OPTIONS = {
    "multiset": _joined(_EXTREME_FLOATS, 4),
    "x_values": _joined(_EXTREME_FLOATS, 3),
    "z_grid": _joined(_Z_TEXT, 3),
    "ensemble": st.sampled_from(cli._ENSEMBLE_NAMES),
    "specs": _joined(st.sampled_from(suites.SWAPPING_SPEC_KINDS), 2),
    "functions": _joined(st.sampled_from(suites.SUITE_FUNCTION_KINDS), 2),
}


@st.composite
def _argv(draw, command, out):
    argv = [command, f"--seed={draw(st.integers(0, 2 ** 64 - 1))}", f"--out={out}"]
    for key in cli._READS[command]:
        flag = cli._CONFIG_FIELDS[key][2]
        if key in _SIZES and not (key == "n_list" and draw(st.booleans())
                                  and "multiset" in cli._READS[command]):
            argv.append(f"{flag}={draw(_SIZES[key])}")
        elif key in _OPTIONS and draw(st.booleans()):
            argv.append(f"{flag}={draw(_OPTIONS[key])}")
    return argv


# 100 runs of each of the six commands
@pytest.mark.parametrize("command", sorted(cli._READS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_commands_on_accepted_flags_exit_0_1_or_2(tmp_path_factory, command, data):
    argv = data.draw(_argv(command, tmp_path_factory.getbasetemp() / "runs"))
    with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        # numpy warns where a value leaves the floats: raise there instead, so a
        # run that goes on with an inf or a NaN it did not check fails here
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    assert code in (0, 1, 2)


def _probabilities(k):
    """k probabilities, some of them 0, that sum to 1."""
    return st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any).map(
        lambda w: [x / sum(w) for x in w])


def _spec_documents(values, params):
    """Accepted spec documents: a multiset of 18 to 30 distinct ``values``, past
    the enumeration budget from i = 2 on (so its A/B are capped); a Markov chain
    on 1 to 3 ``values``; and i.i.d. or conditionally i.i.d. specs whose law or
    mixing law is finite, uniform, Student t (df 1 to 6; A/B capped when mixing)
    or Gaussian, with ``params`` for their numbers."""
    positive = params.map(abs).filter(lambda v: v > 0.0)
    laws = st.one_of(
        st.lists(st.tuples(params, st.integers(1, 5)), min_size=1, max_size=4).map(
            lambda atoms: {"kind": "finite", "values": [v for v, _ in atoms],
                           "probs": [w / sum(w for _, w in atoms) for _, w in atoms]}),
        st.tuples(params, positive).map(lambda lw: [lw[0], lw[0] + lw[1]]).filter(
            lambda bounds: 0.0 < bounds[1] - bounds[0] < math.inf).map(
            lambda bounds: {"kind": "uniform", "params": bounds}),
        st.floats(1.0, 6.0).map(lambda df: {"kind": "student_t", "params": [df]}),
        st.tuples(params, positive).map(
            lambda ms: {"kind": "gaussian", "params": [ms[0], ms[1]]}),
    )
    lengths = st.integers(1, 6)
    return st.one_of(
        st.lists(values, min_size=18, max_size=30, unique=True).map(
            lambda multiset: {"variant": "multiset", "values": multiset}),
        st.integers(1, 3).flatmap(lambda k: st.fixed_dictionaries({
            "variant": st.just("markov"), "states": st.lists(values, min_size=k, max_size=k),
            "initial": _probabilities(k),
            "kernel": st.lists(_probabilities(k), min_size=k, max_size=k), "n": lengths})),
        st.fixed_dictionaries({"variant": st.just("iid"), "dist": laws, "n": lengths}),
        st.fixed_dictionaries({"variant": st.just("conditionally_iid"), "mixing": laws,
                               "conditional": st.just("gaussian_mean"),
                               "scale": st.just(0.0) | positive, "n": lengths}),
    )


def _run_thm11(work, doc, seed, replicates, functions):
    """(exit code, stderr, the texts of the files written) of ``thm11-check`` on
    ``doc``, with numpy's RuntimeWarnings raised as errors."""
    work.mkdir(exist_ok=True)
    spec_path, out = work / "spec.json", work / "out"
    spec_path.write_text(json.dumps(doc))
    for stale in out.glob("*"):
        stale.unlink()
    stderr = io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(stderr)):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["thm11-check", f"--seed={seed}", f"--out={out}",
                         f"--spec-json={spec_path}", f"--replicates={replicates}",
                         f"--functions={functions}"])
    return code, stderr.getvalue(), [written.read_text() for written in out.glob("*")]


_THM11_RUNS = dict(seed=st.integers(0, 2 ** 64 - 1), replicates=st.integers(2, 40),
                   functions=_joined(st.sampled_from(suites.SUITE_FUNCTION_KINDS), 3))


@settings(max_examples=200, deadline=None)
@given(doc=_spec_documents(st.floats(-1e3, 1e3), st.floats(-5.0, 5.0)), **_THM11_RUNS)
def test_thm11_on_capped_spec_documents_runs_to_its_checks(tmp_path_factory, doc, seed,
                                                           replicates, functions):
    code, _, texts = _run_thm11(tmp_path_factory.getbasetemp() / "capped", doc, seed,
                                replicates, functions)
    assert code in (0, 1)  # an accepted document of moderate numbers never ends in an error
    assert not any("nan" in text.lower() for text in texts)


# Numbers up to +-1e300: squares, fourth powers and sums that overflow a float
_HUGE = st.one_of(
    st.floats(-5.0, 5.0),
    st.builds(lambda m, k: float(f"{m}e{k}"), st.integers(-9, 9), st.integers(-300, 299)),
    st.sampled_from([1e300, -1e300, 1e154, 2e154, 1e77]),
)


@settings(max_examples=400, deadline=None)
@given(doc=_spec_documents(_HUGE, _HUGE), **_THM11_RUNS)
def test_thm11_on_spec_documents_with_huge_numbers_writes_no_nan(tmp_path_factory, doc, seed,
                                                                 replicates, functions):
    code, stderr, texts = _run_thm11(tmp_path_factory.getbasetemp() / "huge", doc, seed,
                                     replicates, functions)
    assert code in (0, 1, 2)
    if code == 2:  # rejected where the spec is built: one line, and nothing written
        assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
        assert not texts
    assert not any("nan" in text.lower() for text in texts)
