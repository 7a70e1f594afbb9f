"""Acceptance suite: one test (one pass/fail line under ``pytest -v``) per item.

The eleven items mirror ``vclab verify-paper --level full``.  The underlying
suite runs once per session; each test asserts its item's verdict and, on
failure, prints the item's detail payload so the reason is visible in the
test log.  One more test pins the bytes of the suite's ``result``.

Item 4 is expected to FAIL honestly: its stated size-5 lower-bound witness
for unanchored degenerate balls in dimension 3 provably does not exist (the
exhaustive order-type search at n = 5 — 14400 raw configurations, 335 after
symmetry reduction — finds no shattered configuration, so the true value is
4).  The check is asserted as stated rather than weakened; see the item
details embedded in the failure message.
"""

import hashlib
import json
import os

import pytest

from vclab import canonical_dumps, run_verification

# sha256 of the ``result`` that ``vclab verify-paper --level full`` reports
FULL_RESULT_SHA256 = "3a78dd2c4139c79e5b94c494f4f01a61a97fefe280dc808f2c067f136d2b1e54"


@pytest.fixture(scope="session")
def suite():
    # the CLI's default --jobs; results do not depend on it, which the pin checks
    return run_verification(level="full", jobs=len(os.sched_getaffinity(0)))


def _item(suite, number):
    for item in suite.items:
        if item.number == number:
            return item
    raise AssertionError(f"item {number} missing from suite")


def _assert_item(suite, number):
    item = _item(suite, number)
    message = (
        f"item {item.number} ({item.name}) failed in {item.seconds:.2f}s; "
        f"details: {json.dumps(item.details, sort_keys=True, default=str)}"
    )
    assert item.passed, message
    if item.budget_seconds is not None:
        assert item.seconds <= item.budget_seconds, message


def test_01_cube_witness_lower_bounds(suite):
    """Cube witnesses d=1..5 have sizes 2,3,5,6,8 and full certificates."""
    _assert_item(suite, 1)


def test_02_anchored_witness_lower_bounds(suite):
    """Origin-anchored witnesses d=1..6 have sizes 1,3,4,6,7,9 and shatter."""
    _assert_item(suite, 2)


def test_03_exact_ordinal_vc_table(suite):
    """Exhaustive search reproduces every small exact VC value."""
    _assert_item(suite, 3)


def test_04_degenerate_ball_dimensions(suite):
    """Degenerate balls: d=1 value, d=3 size-5 witness, d=2 resolution.

    Expected to fail honestly: the size-5 witness clause is refuted by
    exhaustion (the d=3 value is 4), while the d=1 and d=2 clauses pass.
    """
    _assert_item(suite, 4)


def test_05_cube_downward_projection(suite):
    """Dropping the widest axis of perturbed cube witnesses stays shattered."""
    _assert_item(suite, 5)


def test_06_anchor_transport(suite):
    """Collapse/expand maps preserve traces on 200 random anchored instances."""
    _assert_item(suite, 6)


def test_07_injective_perturbation(suite):
    """Perturbation yields same-size, injective, still-shattered sets (100x)."""
    _assert_item(suite, 7)


def test_08_extremal_certificates(suite):
    """Every anchored-shattered configuration is fully extremal with k <= d."""
    _assert_item(suite, 8)


def test_09_oracle_equivalence(suite):
    """Deciders match independent enumeration oracles on 1000 instances."""
    _assert_item(suite, 9)


def test_10_growth_bound(suite):
    """All computed coefficients respect the (en/v)^v growth bound."""
    _assert_item(suite, 10)


def test_11_cube_negative_control(suite):
    """100k-trial randomized search finds no shattered 4-set for planar cubes."""
    _assert_item(suite, 11)


def test_full_result_bytes_are_pinned(suite):
    """The CLI's ``result`` for the full suite keeps its bytes."""
    result = {
        "level": suite.level,
        "all_passed": suite.all_passed,
        "items": [
            {"number": r.number, "name": r.name, "passed": r.passed, "details": r.details}
            for r in suite.items
        ],
    }
    digest = hashlib.sha256(canonical_dumps(result).encode("utf-8")).hexdigest()
    assert digest == FULL_RESULT_SHA256
