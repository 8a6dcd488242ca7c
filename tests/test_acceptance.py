"""Acceptance gate: every shipped criterion must pass at its pinned tolerance.

The suite is executed once; each criterion then gets its own test so the
report shows one pass/fail line per criterion, with the measured value and
tolerance printed alongside.
"""

import json
from pathlib import Path

import pytest

from greenkit.validation import CRITERIA, run_acceptance

# Criterion values recorded from the original per-element implementation; a
# faster evaluation must reproduce them to floating-point noise.  Same rule
# and constants as the benchmark's value check: relative noise on substantive
# values plus an absolute floor for values that are themselves round-off.
REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference_validate.json").read_text()
)
VALUE_RTOL = 1e-9
VALUE_ATOL = 1e-12

IDS = [
    "c01-initial-condition",
    "c02-support-law",
    "c03-semigroup-composition",
    "c04-closed-form-equivalence",
    "c05-second-order-initial-conditions",
    "c06-em-causality",
    "c07-frequency-domain-equivalence",
    "c08-pole-half-plane-audit",
    "c09-partial-fraction-identity",
    "c10-distribution-lab",
    "c11-convention-flag",
]


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_acceptance()}


def test_suite_covers_every_criterion(results):
    assert sorted(results) == list(range(1, len(CRITERIA) + 1))


@pytest.mark.parametrize("number", range(1, 12), ids=IDS)
def test_criterion(results, number):
    r = results[number]
    print(r.line())
    assert r.passed, r.line()


@pytest.mark.parametrize("number", range(1, 12), ids=IDS)
def test_criterion_value_is_pinned(results, number):
    ref = REFERENCE[str(number)]
    r = results[number]
    assert abs(r.value - ref["value"]) <= VALUE_RTOL * abs(ref["value"]) + VALUE_ATOL, r.line()


def test_negative_control_eta_sign_flip():
    flipped = run_acceptance(only="8", eta_sign_flip=True)
    assert len(flipped) == 1
    print(flipped[0].line())
    assert not flipped[0].passed
    # the flag reaches the pole audit only
    assert all(r.passed for r in run_acceptance(only="kernel", eta_sign_flip=True))


def test_only_filter_by_tag():
    for tag, numbers in (("kernel", {1, 2, 3, 4, 11}), ("secondorder", {5, 6}),
                         ("freq", {7, 8, 9}), ("distlab", {10})):
        selected = run_acceptance(only=tag)
        assert {r.number for r in selected} == numbers
        assert all(r.tag == tag for r in selected)


def test_only_filter_rejects_unknown():
    with pytest.raises(ValueError):
        run_acceptance(only="nonexistent-tag")
