import numpy as np
import pytest

from lindeberg.functions import SmoothFunction


class OpaqueFunction(SmoothFunction):
    """A smooth function seen only through its values, arity and declared bounds,
    so it takes the generic (non-ridge) paths of the checks."""

    def __init__(self, f):
        super().__init__(f.arity, f.unmixed_bounds, f.mixed_bounds)
        self._f = f

    def __call__(self, x):
        return self._f(x)


def spec_doc(spec) -> dict:
    """The JSON document of a vector spec, as ``spec_from_dict`` reads it: its
    variant and each of its fields under its own name, a law in its law form."""
    doc = {"variant": spec.variant}
    for name in spec._fields:
        value = getattr(spec, name)
        if hasattr(value, "to_dict"):
            value = value.to_dict()
        elif isinstance(value, (tuple, np.ndarray)):
            value = np.asarray(value).tolist()
        doc[name] = value
    return doc


_criterion_lines = []


@pytest.fixture
def criterion_report():
    """Record one pass/fail line per acceptance criterion.

    Lines are echoed in a terminal summary section so they survive output
    capture in any pytest invocation.
    """

    def _report(number: int, name: str, ok: bool, elapsed: float, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        tail = f" [{detail}]" if detail else ""
        line = f"ACCEPT {number:02d} {name}: {status} ({elapsed:.1f}s){tail}"
        _criterion_lines.append(line)
        print(line)
        assert ok, f"criterion {number} ({name}) failed{tail}"

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
