"""Acceptance gate: one printed PASS/FAIL/INFO line per criterion.

Criteria 1-8 gate the suite; criterion 9 (bounded conjecture scans) is
informational and never fails the build.
"""

import pytest

from anickres import checks
from anickres.checks import ALL_CRITERIA


@pytest.fixture(scope="module")
def results():
    out = {}
    for fn in ALL_CRITERIA:
        out[fn.__name__] = fn()
    return out


@pytest.mark.parametrize("fn", ALL_CRITERIA, ids=[f.__name__ for f in ALL_CRITERIA])
def test_criterion(fn, results, capsys):
    result = results[fn.__name__]
    with capsys.disabled():
        print(result.line())
    if result.gating:
        assert result.passed, result.details


@pytest.mark.parametrize(
    "method, broken, detail, value",
    [
        (
            "radical_image_check",
            lambda level: (False, [()]),
            "generic_radical",
            {0: False, 1: False, 2: False},
        ),
        (
            "verify_exactness",
            lambda levels, max_degree: {(1, 3): 1},
            "generic_defects",
            {"(1, 3)": 1},
        ),
    ],
)
def test_criterion_7_gates_on_the_generic_complex(monkeypatch, method, broken, detail, value):
    # the complex the CLI prints, `generic_minimalize`'s, must pass the
    # radical criterion and the exactness check on its own
    real = checks.generic_minimalize

    def generic(gc):
        gm = real(gc)
        setattr(gm, method, broken)
        return gm

    monkeypatch.setattr(checks, "generic_minimalize", generic)
    result = checks.criterion_7_minimality()
    assert not result.passed and result.details[detail] == value
