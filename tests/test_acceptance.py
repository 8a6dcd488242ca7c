"""Acceptance gate: every shipped criterion must pass at its pinned tolerance.

The suite is executed once; each criterion then gets its own test so the
report shows one pass/fail line per criterion, with the measured value and
tolerance printed alongside.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from greenkit.validation import _SPLIT_TIMES, CRITERIA, run_acceptance

# Criterion values recorded from the original per-element implementation; a
# faster evaluation must reproduce them to floating-point noise.  Same rule
# and constants as the benchmark's value check: relative noise on substantive
# values plus an absolute floor for values that are themselves round-off.
REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference_validate.json").read_text()
)
VALUE_RTOL = 1e-9
VALUE_ATOL = 1e-12
# Every (value, tolerance) check of every criterion, float.hex-encoded, as the
# measurements returned them at one BLAS thread; not only the reported one.
CHECKS = {
    int(number): [tuple(map(float.fromhex, check)) for check in checks]
    for number, checks in json.loads((Path(__file__).resolve().parent / "criterion_checks.json").read_text()).items()
}
ROUNDOFF = 1e-12  # a recorded value at or below this is round-off ...
ROUNDOFF_CAP = 100  # ... and may grow to at most this many times itself

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


@pytest.mark.parametrize("number", range(1, 12), ids=IDS)
def test_criterion_tolerance_is_pinned(results, number):
    """A computed tolerance, such as criterion 5's budget, is held to the
    same rule as the value."""
    ref = REFERENCE[str(number)]
    r = results[number]
    assert abs(r.tolerance - ref["tolerance"]) <= VALUE_RTOL * abs(ref["tolerance"]) + VALUE_ATOL, r.line()


def _check_moved(check, ref) -> bool:
    """Whether a check left its pin: an exact check (tolerance 0) and its
    tolerance stay exact; a substantive value and every computed tolerance
    keep the value rule; a round-off value stays within ROUNDOFF_CAP times
    its recorded value."""
    (v, t), (v_ref, t_ref) = check, ref
    if t_ref == 0:
        return (v, t) != (v_ref, t_ref)
    if abs(t - t_ref) > VALUE_RTOL * t_ref + VALUE_ATOL:
        return True
    if v_ref <= ROUNDOFF:
        return not 0 <= v <= ROUNDOFF_CAP * v_ref
    return abs(v - v_ref) > VALUE_RTOL * v_ref + VALUE_ATOL


def test_every_check_of_every_criterion_is_pinned():
    """All 26 checks, 3, 1, 3, 2, 2, 3, 1, 4, 1, 4 and 2 of them from criterion
    1 to 11, hold their recorded values: a check that no criterion reports
    (such as criterion 10's S-P offset under its step transform's 0.99995)
    is pinned too, and a dropped check fails the count."""
    measured = {fn.number: [(float(v), float(t)) for v, t in fn.__wrapped__()[0]] for fn in CRITERIA}
    assert {n: len(checks) for n, checks in CHECKS.items()} == dict(zip(range(1, 12), (3, 1, 3, 2, 2, 3, 1, 4, 1, 4, 2)))
    assert {n: len(checks) for n, checks in measured.items()} == {n: len(checks) for n, checks in CHECKS.items()}
    moved = {(n, k): (check, CHECKS[n][k]) for n, checks in measured.items()
             for k, check in enumerate(checks) if _check_moved(check, CHECKS[n][k])}
    assert moved == {}


def test_the_pin_sees_a_moved_check():
    assert not _check_moved((1e-3 * (1 + 5e-10), 1e-3), (1e-3, 1e-3))
    assert _check_moved((1e-3 * (1 + 1e-8), 1e-3), (1e-3, 1e-3))
    assert not _check_moved((99e-16, 1e-6), (1e-16, 1e-6)) and _check_moved((101e-16, 1e-6), (1e-16, 1e-6))
    assert _check_moved((1e-300, 1e-12), (0.0, 1e-12)) and _check_moved((-1e-16, 1e-6), (1e-16, 1e-6))
    assert _check_moved((5e-324, 0.0), (0.0, 0.0)) and _check_moved((0.0, 1e-9), (0.0, 0.0))
    assert _check_moved((1e-3, 1.1e-3), (1e-3, 1e-3))


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


def test_split_times_are_the_seeded_draws():
    """Criterion 3's literal split times are the 15 pairs that its seeded
    generator drew before the table replaced it, in the same order."""
    rng = np.random.default_rng(7)
    drawn = tuple(tuple(map(float, rng.uniform(0.05, 0.95, 2))) for _ in range(15))
    assert _SPLIT_TIMES == drawn


def test_each_criterion_and_a_pass_hold_under_5_mb():
    """Every long axis of a pass is read a block at a time: criterion 8's
    320k-sample response, its weighted copy and weights, criterion 10's 1.6M
    samples and criterion 7's line legs.  The largest array left is criterion
    8's own omega axis (2.6 MB); under tracemalloc criterion 8 peaks near
    4.1 MB, criterion 7 near 2.4 MB and criterion 10 near 0.8 MB."""
    peaks = {}
    for fn in CRITERIA:
        tracemalloc.start()
        try:
            fn()
            peaks[fn.number] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    tracemalloc.start()
    try:
        run_acceptance()
        peaks["pass"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {k: peak for k, peak in peaks.items() if peak >= 5e6} == {}
