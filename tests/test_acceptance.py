"""Acceptance gate: every headline criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible under pytest -s or in the
CLI's verify-theorems command, which runs the same checks).
"""

import pytest

from turan_matroids.acceptance import CRITERIA


@pytest.mark.parametrize(
    "criterion", [fn for fn, _tags in CRITERIA], ids=[fn.__name__ for fn, _tags in CRITERIA]
)
def test_criterion(criterion):
    result = criterion()
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
